package deps_test

import (
	"testing"

	"defuse/internal/bench"
	"defuse/internal/deps"
	"defuse/internal/pdg"
)

var sink *deps.Flow

// BenchmarkAnalyze measures flow-dependence analysis alone (the polyhedral
// projection and emptiness work) per Table 2 kernel. Run with
//
//	go test -run '^$' -bench Analyze -benchmem ./internal/deps
func BenchmarkAnalyze(b *testing.B) {
	for _, bm := range bench.Suite() {
		b.Run(bm.Name, func(b *testing.B) {
			m, err := pdg.Extract(bm.Program())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = deps.Analyze(m)
			}
		})
	}
}
