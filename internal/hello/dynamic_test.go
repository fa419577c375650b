package hello

import (
	"math"
	"testing"
)

// TestDynamicDefaultsAndValidate pins the documented defaults and the
// rejection of out-of-range parameters.
func TestDynamicDefaultsAndValidate(t *testing.T) {
	d := Dynamic{}.WithDefaults()
	if d.Interval != 5 || d.Expiry != 15 {
		t.Errorf("defaults: interval=%v expiry=%v, want 5/15", d.Interval, d.Expiry)
	}
	d = Dynamic{Interval: 2}.WithDefaults()
	if d.Expiry != 6 {
		t.Errorf("expiry default = %v, want 3x interval", d.Expiry)
	}
	for _, bad := range []Dynamic{
		{Interval: -1},
		{Interval: 5, Expiry: -1},
		{Interval: 5, LossRate: 1},
		{Interval: 5, LossRate: -0.1},
		{Interval: math.NaN()},
		{Interval: math.Inf(1)},
		{Interval: 5, Expiry: math.Inf(1)},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", bad)
		}
	}
	if err := (Dynamic{Interval: 5, Expiry: 15, LossRate: 0.3}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestDynamicReceivedPure: the beacon outcome is a pure function — identical
// across calls, sensitive to every argument, round 0 always received, and
// loss-free when LossRate is 0.
func TestDynamicReceivedPure(t *testing.T) {
	d := Dynamic{Interval: 5, Expiry: 15, LossRate: 0.5, Seed: 42}
	for recv := 0; recv < 4; recv++ {
		for from := 0; from < 4; from++ {
			if !d.Received(recv, from, 0) {
				t.Fatalf("round 0 (%d<-%d) lost: the initial exchange is always received", recv, from)
			}
			for round := 1; round <= 8; round++ {
				a, b := d.Received(recv, from, round), d.Received(recv, from, round)
				if a != b {
					t.Fatalf("Received(%d,%d,%d) is not deterministic", recv, from, round)
				}
			}
		}
	}
	lossless := Dynamic{Interval: 5, Expiry: 15, Seed: 42}
	for round := 1; round <= 100; round++ {
		if !lossless.Received(0, 1, round) {
			t.Fatalf("LossRate 0 lost beacon round %d", round)
		}
	}
	// The empirical loss frequency must track LossRate (pure hash, 53-bit
	// uniform draw): over 4000 draws a 0.5 rate stays well within [0.4, 0.6].
	lost := 0
	for round := 1; round <= 4000; round++ {
		if !d.Received(1, 2, round) {
			lost++
		}
	}
	if frac := float64(lost) / 4000; frac < 0.4 || frac > 0.6 {
		t.Errorf("empirical loss %.3f far from configured 0.5", frac)
	}
}

// TestDynamicClocks exercises Rounds/LastHeard/LinkStale against a hand-built
// loss pattern: with LossRate 0 every beacon lands, so the clocks are exact.
func TestDynamicClocks(t *testing.T) {
	d := Dynamic{Interval: 5, Expiry: 15, Seed: 1}
	if got := d.Rounds(12); got != 2 {
		t.Errorf("Rounds(12) = %d, want 2", got)
	}
	if got := d.Rounds(-1); got != 0 {
		t.Errorf("Rounds(-1) = %d, want 0", got)
	}
	if got := d.LastHeard(0, 1, 12); got != 10 {
		t.Errorf("LastHeard at t=12 = %v, want 10", got)
	}
	if got := d.LastHeard(0, 1, 3); got != 0 {
		t.Errorf("LastHeard before round 1 = %v, want 0 (initial exchange)", got)
	}
	if d.LinkStale(0, 1, 14) {
		t.Error("link stale at t=14 with a beacon at t=10")
	}
	// With every beacon received, staleness never triggers (gap is always
	// Interval <= Expiry).
	for _, tm := range []float64{0, 4.9, 15, 50, 123.4} {
		if d.LinkStale(0, 1, tm) {
			t.Errorf("lossless link stale at t=%v", tm)
		}
		if d.EverStale(0, 1, tm) {
			t.Errorf("lossless link ever-stale by t=%v", tm)
		}
	}
}

// TestDynamicEverStale: a loss streak longer than the expiry must register as
// a historical stale interval even if the link is fresh again at the end.
func TestDynamicEverStale(t *testing.T) {
	// Find a (seed, receiver) pair whose loss schedule contains a >3-round
	// gap in the first 40 rounds — with LossRate 0.5 this is essentially
	// certain for some small seed — then verify EverStale sees it.
	d := Dynamic{Interval: 5, Expiry: 15, LossRate: 0.5}
	for seed := int64(1); seed <= 32; seed++ {
		d.Seed = seed
		last, gap := 0, 0
		for r := 1; r <= 40; r++ {
			if d.Received(0, 1, r) {
				if r-last > gap {
					gap = r - last
				}
				last = r
			}
		}
		if gap <= 3 || !d.Received(0, 1, 40) && !d.Received(0, 1, 39) {
			continue
		}
		end := 40 * d.Interval
		if !d.EverStale(0, 1, end) {
			t.Fatalf("seed %d: a %d-round beacon gap did not register as ever-stale", seed, gap)
		}
		if d.LinkStale(0, 1, end) {
			t.Fatalf("seed %d: link still stale at t=%v despite a recent beacon", seed, end)
		}
		return
	}
	t.Fatal("no seed in 1..32 produced a suitable loss pattern")
}

// TestDynamicLosslessClosedForm: without loss LastHeard and EverStale answer
// in closed form. They must agree with the round-by-round walk wherever that
// walk is affordable, and answer at once where it is not.
func TestDynamicLosslessClosedForm(t *testing.T) {
	for _, iv := range []float64{0, 0.5, 1, 2, 3, 5} {
		for _, exp := range []float64{0.4, 0.5, 1, 2.5, 15} {
			d := Dynamic{Interval: iv, Expiry: exp, Seed: 7}
			for _, tm := range []float64{-1, 0, 0.3, 1, 2.4, 2.5, 7, 12.75, 100} {
				last, ever := 0.0, false
				for r := 1; r <= d.Rounds(tm); r++ {
					at := float64(r) * d.Interval
					ever = ever || at-last > d.Expiry
					last = at
				}
				ever = tm >= 0 && (ever || tm-last > d.Expiry)
				if got := d.LastHeard(0, 1, tm); got != last {
					t.Errorf("%+v: LastHeard(%v) = %v, want %v", d, tm, got, last)
				}
				if got := d.EverStale(0, 1, tm); got != ever {
					t.Errorf("%+v: EverStale(%v) = %v, want %v", d, tm, got, ever)
				}
			}
		}
	}
	// Ten billion rounds: only the closed form answers this in time.
	d := Dynamic{Interval: 1e-10}.WithDefaults()
	if d.EverStale(0, 1, 1) || d.LinkStale(0, 1, 1) {
		t.Error("lossless 1e-10 interval link reported stale")
	}
}
