package parser

import (
	"testing"

	"ipcp/internal/mf/lexer"
	"ipcp/internal/mf/sema"
	"ipcp/internal/mf/token"
	"ipcp/internal/suite"
)

var benchSrc = suite.Generate("snasa7", 4).Source

// BenchmarkLex measures the scanner alone, pulling every token as the
// parser does.
func BenchmarkLex(b *testing.B) {
	b.SetBytes(int64(len(benchSrc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lx := lexer.New(benchSrc)
		for lx.Next().Kind != token.EOF {
		}
	}
}

// BenchmarkParse measures lexing + parsing.
func BenchmarkParse(b *testing.B) {
	b.SetBytes(int64(len(benchSrc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchSrc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSema measures semantic analysis on a pre-parsed file.
func BenchmarkSema(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := Parse(benchSrc) // sema mutates the AST; reparse per iteration
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sema.Analyze(f); err != nil {
			b.Fatal(err)
		}
	}
}
