package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"defuse/internal/faults"
)

// The client side of /run, shared by every program that drives the service
// (the load generator and the chaos soak): one request path, and one audit
// that grades a response against truth the client recomputes itself.

// PostResult is the outcome of one /run round trip.
type PostResult struct {
	Status int
	// Response is the decoded body of a 200.
	Response Response
	// Body holds the start of any other status's body.
	Body string
	// RetryAfter is the server's Retry-After delay (0 when absent).
	RetryAfter time.Duration
}

// PostRun sends req to the service at target (its base URL) and reads the
// reply. A transport or decode failure is the error; any status is a result.
func PostRun(ctx context.Context, client *http.Client, target string, req Request) (PostResult, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return PostResult{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/run", bytes.NewReader(raw))
	if err != nil {
		return PostResult{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := client.Do(hreq)
	if err != nil {
		return PostResult{}, err
	}
	defer hresp.Body.Close()
	res := PostResult{Status: hresp.StatusCode}
	if secs, err := strconv.Atoi(hresp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		res.RetryAfter = time.Duration(secs) * time.Second
	}
	if hresp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(hresp.Body, 4096))
		res.Body = string(body)
		return res, nil
	}
	err = json.NewDecoder(hresp.Body).Decode(&res.Response)
	return res, err
}

// Verdict grades one 200 response. Undetected and Wrong are empty when that
// part of the response is right.
type Verdict struct {
	// Injected reports that the live sampler placed a fault on the request.
	Injected bool
	// Undetected describes a wrong fault story: the server's injected flag
	// disagrees with the sampler, or a placed fault was not detected and
	// recovered.
	Undetected string
	// Wrong describes a wrong result: the run degraded to tainted, or its
	// digest differs from the reference.
	Wrong string
}

// Failure is the verdict's first violation, "" when the response is right.
func (v Verdict) Failure() string {
	if v.Undetected != "" {
		return v.Undetected
	}
	return v.Wrong
}

// Audit grades a 200 response to req against the client's own truth. The
// sampler, which must mirror the server's, says whether the server had to
// inject a fault; ReferenceDigest under the server's seed says what digest a
// verify job must return, and a kernel job must return its warmup
// reference.
func Audit(sampler *faults.LiveSampler, seed uint64, req Request, resp Response) Verdict {
	v := Verdict{Injected: req.Kind == KindVerify && sampler.Sample(req.ID)}
	switch {
	case resp.Injected != v.Injected:
		v.Undetected = fmt.Sprintf("request %d: server injected=%v, client expected %v", req.ID, resp.Injected, v.Injected)
	case v.Injected && (!resp.Detected || !resp.Recovered):
		v.Undetected = fmt.Sprintf("request %d: injected fault detected=%v recovered=%v", req.ID, resp.Detected, resp.Recovered)
	}
	want := resp.RefDigest
	if req.Kind == KindVerify {
		want = ReferenceDigest(req.Words, req.Epochs, seed, req.ID)
	}
	switch {
	case resp.Tainted:
		v.Wrong = fmt.Sprintf("request %d: degraded to tainted", req.ID)
	case resp.Digest != want:
		v.Wrong = fmt.Sprintf("%s request %d: digest %x, reference %x", req.Kind, req.ID, resp.Digest, want)
	}
	return v
}
