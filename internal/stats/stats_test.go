package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMedianInt64(t *testing.T) {
	cases := []struct {
		in   []int64
		want int64
	}{
		{[]int64{5}, 5},
		{[]int64{3, 1, 2}, 2},
		{[]int64{4, 1, 3, 2}, 2}, // lower middle
		{[]int64{-5, 10, 0}, 0},
		{[]int64{7, 7, 7, 7, 7}, 7},
	}
	for _, c := range cases {
		if got := MedianInt64(c.in); got != c.want {
			t.Fatalf("MedianInt64(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []int64{3, 1, 2}
	MedianInt64(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("median must not reorder its input")
	}
	inf := []float64{3, 1, 2}
	MedianFloat64(inf)
	if inf[0] != 3 {
		t.Fatal("float median must not reorder its input")
	}
}

func TestMedianPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MedianInt64(nil)
}

// Property: the median is an element of the input lying at the correct
// sorted rank.
func TestMedianRankProperty(t *testing.T) {
	f := func(xs []int64) bool {
		if len(xs) == 0 {
			return true
		}
		m := MedianInt64(xs)
		tmp := make([]int64, len(xs))
		copy(tmp, xs)
		sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
		return m == tmp[(len(tmp)-1)/2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianFloat64(t *testing.T) {
	if got := MedianFloat64([]float64{1.5, 0.5, 2.5}); got != 1.5 {
		t.Fatalf("got %v", got)
	}
}

func TestSymmetricError(t *testing.T) {
	cases := []struct {
		est, actual, want float64
	}{
		{100, 100, 0},
		{110, 100, 0.1},
		{100, 110, 0.1}, // symmetric
		{200, 100, 1},
		{50, 100, 1},
		{0, 100, ErrorSanityBound},
		{-5, 100, ErrorSanityBound},
		{100, 0, ErrorSanityBound},
		{1e9, 1, ErrorSanityBound}, // capped
	}
	for _, c := range cases {
		got := SymmetricError(c.est, c.actual)
		if math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("SymmetricError(%v,%v) = %v, want %v", c.est, c.actual, got, c.want)
		}
	}
}

// Property: symmetry — the metric treats x/y like y/x.
func TestSymmetricErrorSymmetryProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := float64(a)+1, float64(b)+1
		return math.Abs(SymmetricError(x, y)-SymmetricError(y, x)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the symmetric metric upper-bounds plain relative error for
// overestimates and penalizes underestimates more than relative error.
func TestSymmetricVsRelative(t *testing.T) {
	if SymmetricError(50, 100) <= RelativeError(50, 100) {
		t.Fatal("underestimates must be penalized at least as much")
	}
	if math.Abs(SymmetricError(150, 100)-RelativeError(150, 100)) > 1e-12 {
		t.Fatal("overestimates coincide with relative error")
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(90, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("got %v", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Fatalf("got %v", got)
	}
	if got := RelativeError(5, 0); got != ErrorSanityBound {
		t.Fatalf("got %v", got)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v", w.Mean())
	}
	// Sample variance of this classic data set is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-9 {
		t.Fatalf("Variance = %v", w.Variance())
	}
	if math.Abs(w.StdDev()-math.Sqrt(32.0/7.0)) > 1e-9 {
		t.Fatalf("StdDev = %v", w.StdDev())
	}
}

func TestWelfordMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var w Welford
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 7
		xs = append(xs, x)
		w.Add(x)
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	va := 0.0
	for _, x := range xs {
		va += (x - mean) * (x - mean)
	}
	va /= float64(len(xs) - 1)
	if math.Abs(w.Mean()-mean) > 1e-9 || math.Abs(w.Variance()-va) > 1e-6 {
		t.Fatalf("welford (%v,%v) vs direct (%v,%v)", w.Mean(), w.Variance(), mean, va)
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Fatal("zero-value Welford must report zeros")
	}
	w.Add(5)
	if w.Variance() != 0 {
		t.Fatal("variance with one sample must be 0")
	}
}
