package stream

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFreqVectorBasics(t *testing.T) {
	f := NewFreqVector()
	f.Update(3, 1)
	f.Update(3, 1)
	f.Update(5, 4)
	if got := f.Get(3); got != 2 {
		t.Fatalf("Get(3) = %d, want 2", got)
	}
	if got := f.Get(5); got != 4 {
		t.Fatalf("Get(5) = %d, want 4", got)
	}
	if got := f.Get(99); got != 0 {
		t.Fatalf("Get(99) = %d, want 0", got)
	}
	if got := len(f); got != 2 {
		t.Fatalf("support = %d, want 2", got)
	}
	if got := f.SelfJoinSize(); got != 4+16 {
		t.Fatalf("SelfJoinSize = %d, want 20", got)
	}
}

func TestFreqVectorDeleteCancels(t *testing.T) {
	f := NewFreqVector()
	f.Update(7, 1)
	f.Update(7, -1)
	if len(f) != 0 {
		t.Fatal("insert followed by delete must leave empty support")
	}
	f.Update(8, -3)
	if got := f.Get(8); got != -3 {
		t.Fatalf("negative frequencies must be representable, got %d", got)
	}
}

func TestInnerProduct(t *testing.T) {
	f := FreqVector{1: 2, 2: 3, 4: 1}
	g := FreqVector{2: 5, 4: 4, 9: 100}
	want := int64(3*5 + 1*4)
	if got := f.InnerProduct(g); got != want {
		t.Fatalf("InnerProduct = %d, want %d", got, want)
	}
	if got := g.InnerProduct(f); got != want {
		t.Fatal("InnerProduct must be symmetric")
	}
	if got := f.InnerProduct(NewFreqVector()); got != 0 {
		t.Fatalf("inner product with empty vector = %d, want 0", got)
	}
}

func TestInnerProductSymmetryProperty(t *testing.T) {
	f := func(av, bv []uint8, aw, bw []int8) bool {
		a, b := NewFreqVector(), NewFreqVector()
		for i, v := range av {
			w := int64(1)
			if i < len(aw) {
				w = int64(aw[i])
			}
			a.Update(uint64(v), w)
		}
		for i, v := range bv {
			w := int64(1)
			if i < len(bw) {
				w = int64(bw[i])
			}
			b.Update(uint64(v), w)
		}
		return a.InnerProduct(b) == b.InnerProduct(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSelfJoinEqualsInnerProductWithSelf(t *testing.T) {
	f := func(vals []uint16) bool {
		fv := NewFreqVector()
		for _, v := range vals {
			fv.Update(uint64(v%256), 1)
		}
		return fv.SelfJoinSize() == fv.InnerProduct(fv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExactJoinSize(t *testing.T) {
	fs := []Update{Insert(1), Insert(1), Insert(2), Delete(2)}
	gs := []Update{Insert(1), Insert(3)}
	f, g := NewFreqVector(), NewFreqVector()
	Apply(fs, f)
	Apply(gs, g)
	if got := f.InnerProduct(g); got != 2 {
		t.Fatalf("exact join size = %d, want 2", got)
	}
}

func TestApplyFansOut(t *testing.T) {
	a, b := NewFreqVector(), NewFreqVector()
	Apply([]Update{Insert(1), Insert(2)}, a, b)
	if a.Get(1) != 1 || b.Get(2) != 1 {
		t.Fatal("Apply must feed every sink")
	}
}

func TestValidate(t *testing.T) {
	if err := Validate([]Update{Insert(3)}, 4); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := Validate([]Update{Insert(4)}, 4); err == nil {
		t.Fatal("expected out-of-domain error")
	}
}

func TestExactJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		var fs, gs []Update
		nf, ng := rng.Intn(200), rng.Intn(200)
		for i := 0; i < nf; i++ {
			fs = append(fs, Insert(uint64(rng.Intn(50))))
		}
		for i := 0; i < ng; i++ {
			gs = append(gs, Insert(uint64(rng.Intn(50))))
		}
		// brute force: count matching pairs
		var brute int64
		for _, a := range fs {
			for _, b := range gs {
				if a.Value == b.Value {
					brute++
				}
			}
		}
		f, g := NewFreqVector(), NewFreqVector()
		Apply(fs, f)
		Apply(gs, g)
		if got := f.InnerProduct(g); got != brute {
			t.Fatalf("trial %d: exact join size = %d, brute force = %d", trial, got, brute)
		}
	}
}
