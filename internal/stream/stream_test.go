package stream

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// reference is the byte layout written out with hash/fnv.
func reference(base int64, purpose string, parts ...int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(base))
	h.Write(buf[:])
	h.Write([]byte(purpose))
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], uint64(p))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestHashMatchesFNVReference checks Hash against hash/fnv for each layout
// the tree uses: a purpose alone (simulator, fault, hello, mobility streams),
// an empty purpose with one part (traffic's per-source and, with -1,
// source-selection streams), and a purpose with three parts (live links and
// backoff, the beacon-loss hash).
func TestHashMatchesFNVReference(t *testing.T) {
	cases := []struct {
		base    int64
		purpose string
		parts   []int
	}{
		{42, "jitter", nil},
		{-7, "fault.plan", nil},
		{0, "", nil},
		{42, "", []int{-1}},
		{1 << 40, "", []int{17}},
		{42, "live.link", []int{3, 1, 2}},
		{20030519, "bcastnode.backoff", []int{5, 9, 0}},
		{-1, "hello/beacon", []int{12, 7, 1 << 33}},
	}
	for _, c := range cases {
		want := reference(c.base, c.purpose, c.parts...)
		if got := Hash(c.base, c.purpose, c.parts...); got != want {
			t.Errorf("Hash(%d, %q, %v) = %#x, want %#x", c.base, c.purpose, c.parts, got, want)
		}
		if got, w := Seed(c.base, c.purpose, c.parts...), int64(want&(1<<62-1)); got != w {
			t.Errorf("Seed(%d, %q, %v) = %d, want %d", c.base, c.purpose, c.parts, got, w)
		}
	}
}

// TestSeedPinned pins Seed(42, purpose) for the purposes the tree keys
// streams with: a change here re-keys every committed table and trace.
func TestSeedPinned(t *testing.T) {
	for _, c := range []struct {
		purpose string
		want    int64
	}{
		{"jitter", 1315175307576871189},
		{"loss", 3018858225433097296},
		{"fault", 4072613174642571465},
		{"mac", 2822289698462696242},
		{"fault.plan", 3655810042229216530},
		{"hello/loss", 2578488065820695809},
		{"mobility/perturb", 3842635184865442117},
	} {
		if got := Seed(42, c.purpose); got != c.want {
			t.Errorf("Seed(42, %q) = %d, want %d", c.purpose, got, c.want)
		}
	}
}
