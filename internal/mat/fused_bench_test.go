package mat

import (
	"math/rand"
	"testing"
)

func randMat(r, c int, zeroFrac float64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(r, c)
	for i := range m.Data {
		if rng.Float64() >= zeroFrac {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// The dW = inputᵀ*grad backprop shape: fused vs explicit transpose.
func BenchmarkDWTranspose(b *testing.B) {
	a := randMat(128, 64, 0.5, 1)
	g := randMat(128, 64, 0.3, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Mul(a.T(), g)
	}
}

func BenchmarkDWFused(b *testing.B) {
	a := randMat(128, 64, 0.5, 1)
	g := randMat(128, 64, 0.3, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulATBInto(New(a.Cols, g.Cols), a, g)
	}
}

// The forward-pass shape (batch x in times in x out).
func BenchmarkMulForward(b *testing.B) {
	x := randMat(128, 64, 0.5, 1)
	w := randMat(64, 64, 0, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Mul(x, w)
	}
}
