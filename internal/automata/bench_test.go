package automata

import (
	"math"
	"testing"

	"github.com/shelley-go/shelley/internal/regex"
)

var benchRegex = regex.MustParse("(a . (b + c))* . a . b . (c + a . (b + c)* . c)")

func BenchmarkDeterminize(b *testing.B) {
	n := FromRegexThompson(benchRegex)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Determinize()
	}
}

func BenchmarkMinimize(b *testing.B) {
	d := FromRegexThompson(benchRegex).Determinize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Minimize()
	}
}

// BenchmarkProduct walks the whole reachable product of two DFAs with
// the product search.
func BenchmarkProduct(b *testing.B) {
	d1 := CompileMinimal(regex.MustParse("(a + b)* . a"))
	d2 := CompileMinimal(regex.MustParse("a . (a + b)*"))
	and := func(x, y bool) bool { return x && y }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Asking for every witness walks the whole reachable product.
		if _, err := d1.Search(d1.Start(), d2.Over(d1.Alphabet(), false), and, math.MaxInt, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkToRegex(b *testing.B) {
	d := CompileMinimal(benchRegex)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ToRegex()
	}
}

func BenchmarkAcceptsDFA(b *testing.B) {
	d := CompileMinimal(benchRegex)
	tr := []string{"a", "b", "a", "c", "a", "b", "c"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Accepts(tr)
	}
}
