package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// stallServer answers instantly except for request stallAt, which holds a
// server-wide lock for stall — a pause every connection waits behind.
func stallServer(stallAt int, stall time.Duration) *httptest.Server {
	var mu sync.Mutex
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, _ := strconv.Atoi(r.URL.Query().Get("i"))
		mu.Lock()
		if i == stallAt {
			time.Sleep(stall)
		}
		mu.Unlock()
		_, _ = io.WriteString(w, "ok")
	}))
}

func drive(t *testing.T, srv *httptest.Server, rate float64, n int) []shot {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	defer client.CloseIdleConnections()
	return openLoop(context.Background(), rate, n, 2, func(i int) error {
		resp, err := client.Get(srv.URL + "?i=" + strconv.Itoa(i))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	})
}

func lateMS(shots []shot) percentiles {
	var xs []float64
	for _, s := range shots {
		xs = append(xs, s.Late().Seconds()*1000)
	}
	return summarize(xs)
}

func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const (
		rate    = 200 // one request due every 5 ms
		n       = 120
		stallAt = 20
		stall   = 150 * time.Millisecond
	)
	srv := stallServer(stallAt, stall)
	defer srv.Close()
	shots := drive(t, srv, rate, n)
	for i, s := range shots {
		if s.Err != nil {
			t.Fatalf("request %d: %v", i, s.Err)
		}
		if want := time.Duration(i) * time.Second / rate; s.Due != want {
			t.Fatalf("request %d due at %v, want %v: the schedule must not depend on responses", i, s.Due, want)
		}
	}
	// Requests due while the server was stalled could not be sent on time;
	// timing from the due time charges them the wait.
	var hit int
	for i := stallAt + 1; i < stallAt+1+int(stall/(time.Second/rate)); i++ {
		if shots[i].Latency() > stall/3 {
			hit++
		}
	}
	if hit < 10 {
		t.Fatalf("only %d requests after the stall show it in their latency", hit)
	}
	if late := lateMS(shots); late.Tail < 50 {
		t.Fatalf("generator lateness %s does not show a %v stall", late.String("ms"), stall)
	}
}

func TestOpenLoopWithoutStallRunsOnTime(t *testing.T) {
	srv := stallServer(-1, 0)
	defer srv.Close()
	shots := drive(t, srv, 200, 100)
	if late := lateMS(shots); late.P50 > 5 {
		t.Fatalf("an idle server should be driven on time, lateness %s", late.String("ms"))
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	sent := 0
	shots := openLoop(ctx, 1000, 1000, 2, func(i int) error {
		mu.Lock()
		defer mu.Unlock()
		if sent++; sent == 5 {
			cancel()
		}
		return nil
	})
	mu.Lock()
	defer mu.Unlock()
	if sent >= 1000 {
		t.Fatal("cancelling did not stop the schedule")
	}
	if shots[len(shots)-1].Err == nil {
		t.Fatal("an unsent request must carry the context error")
	}
}
