package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	for _, x := range []int{0, 63, 64, 129} {
		b.Set(x)
	}
	b.Set(63) // already a member
	if got := b.Elements(nil); !equalInts(got, []int{0, 63, 64, 129}) {
		t.Fatalf("Elements() = %v", got)
	}
}

func TestBitsetOutOfRange(t *testing.T) {
	b := NewBitset(10)
	b.Set(-1)
	b.Set(10)
	b.Set(1000)
	if got := b.Elements(nil); len(got) != 0 {
		t.Fatalf("out-of-range Set changed the set: %v", got)
	}
}

func TestBitsetUnionIntersects(t *testing.T) {
	a := NewBitset(100)
	b := NewBitset(100)
	a.Set(5)
	a.Set(70)
	b.Set(71)
	if a.Intersects(b) {
		t.Fatal("disjoint sets reported intersecting")
	}
	b.Set(70)
	if !a.Intersects(b) {
		t.Fatal("intersecting sets reported disjoint")
	}
	a.Union(b)
	if got := a.Elements(nil); !equalInts(got, []int{5, 70, 71}) {
		t.Fatalf("union elements = %v", got)
	}
}

func TestBitsetZeroCapacity(t *testing.T) {
	for _, n := range []int{0, -5} { // a negative capacity is clamped to 0
		b := NewBitset(n)
		b.Set(0)
		if got := b.Elements(nil); len(got) != 0 {
			t.Fatalf("capacity %d bitset accepted %v", n, got)
		}
	}
}

// TestBitsetQuick property-checks the bitset against a map-based model:
// after random sets and unions, Elements lists exactly the model's members.
func TestBitsetQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		b := NewBitset(n)
		model := make(map[int]bool)
		for op := 0; op < 300; op++ {
			x := rng.Intn(n)
			if rng.Intn(10) > 0 {
				b.Set(x)
				model[x] = true
				continue
			}
			other := NewBitset(n)
			other.Set(x)
			if b.Intersects(other) != model[x] {
				return false
			}
			b.Union(other)
			model[x] = true
		}
		want := make([]int, 0, len(model))
		for x := range model {
			want = append(want, x)
		}
		sort.Ints(want)
		return equalInts(b.Elements(nil), want)
	}
	if err := quick.Check(f, quickConfig(50)); err != nil {
		t.Fatal(err)
	}
}

// TestBitsetElementsSortedQuick checks Elements always returns ascending
// order and honors the dst-append contract.
func TestBitsetElementsSortedQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBitset(500)
		distinct := make(map[int]bool)
		for i := 0; i < 80; i++ {
			x := rng.Intn(500)
			b.Set(x)
			distinct[x] = true
		}
		prefix := []int{-7}
		out := b.Elements(prefix)
		if out[0] != -7 {
			return false
		}
		for i := 2; i < len(out); i++ {
			if out[i] <= out[i-1] {
				return false
			}
		}
		return len(out) == 1+len(distinct)
	}
	if err := quick.Check(f, quickConfig(50)); err != nil {
		t.Fatal(err)
	}
}
