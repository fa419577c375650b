package chaos

import (
	"math/rand"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/hello"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	rt "adhocbcast/internal/runtime"
	"adhocbcast/internal/sim"
)

// buildNodeBinary compiles cmd/bcastnode once into a test temp dir. The
// children run without the race detector (they are separate processes); the
// supervisor — the code under -race — is this test binary.
func buildNodeBinary(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	root := filepath.Dir(strings.TrimSpace(string(out)))
	bin := filepath.Join(t.TempDir(), "bcastnode")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bcastnode")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/bcastnode: %v\n%s", err, msg)
	}
	return bin
}

// TestKillPlanDeterministic: the kill schedule is a pure function of
// (seed, horizon) — two builds agree interval for interval — and a different
// seed produces a different schedule.
func TestKillPlanDeterministic(t *testing.T) {
	cfg := DefaultConfig(7, 10, 400)
	a, err := KillPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KillPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kills := 0
	for v := range a.NodeDown {
		if len(a.NodeDown[v]) != len(b.NodeDown[v]) {
			t.Fatalf("node %d: %d vs %d intervals across rebuilds", v, len(a.NodeDown[v]), len(b.NodeDown[v]))
		}
		for i := range a.NodeDown[v] {
			if a.NodeDown[v][i] != b.NodeDown[v][i] {
				t.Fatalf("node %d interval %d: %+v vs %+v", v, i, a.NodeDown[v][i], b.NodeDown[v][i])
			}
		}
		if v < cfg.Backbone && len(a.NodeDown[v]) > 0 {
			t.Fatalf("backbone node %d has down intervals; only victims may be killed", v)
		}
		kills += len(a.NodeDown[v])
	}
	if kills == 0 {
		t.Fatal("kill plan is empty")
	}
	cfg2 := cfg
	cfg2.Seed = 8
	c, err := KillPlan(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := range a.NodeDown {
		if len(a.NodeDown[v]) != len(c.NodeDown[v]) {
			same = false
			break
		}
		for i := range a.NodeDown[v] {
			if a.NodeDown[v][i] != c.NodeDown[v][i] {
				same = false
			}
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical kill plans")
	}
}

// TestChaosSoak is the acceptance soak: real processes, seed-deterministic
// SIGKILL/restart chaos, and the three invariants from the package doc.
// Full size (no -short) is a 200-broadcast run with at least 30 kills.
func TestChaosSoak(t *testing.T) {
	broadcasts, horizon, minKills := 200, 500.0, 30
	if testing.Short() {
		broadcasts, horizon, minKills = 40, 120.0, 4
	}
	cfg := DefaultConfig(1, broadcasts, horizon)
	cfg.Bin = buildNodeBinary(t)
	cfg.Dir = t.TempDir()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	t.Logf("chaos: kills=%d restarts=%d boots=%d replays=%d rejoins=%d strict=%d/%d",
		rep.Kills, rep.Restarts, rep.Boots, rep.Replays, rep.Rejoins,
		rep.StrictDelivered, rep.StrictChecked)
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if rep.Kills < minKills {
		t.Errorf("only %d kills executed, want >= %d", rep.Kills, minKills)
	}
	if rep.Restarts != rep.Kills {
		t.Errorf("%d restarts for %d kills: every SIGKILL must be followed by a respawn", rep.Restarts, rep.Kills)
	}
	n := cfg.Backbone + cfg.Victims
	if rep.Boots != n+rep.Restarts {
		t.Errorf("boots=%d, want n+restarts=%d: journals must count every process start", rep.Boots, n+rep.Restarts)
	}
	if rep.Replays == 0 {
		t.Error("zero journal replays: the chaos never exercised recovery")
	}
	if rep.Rejoins == 0 {
		t.Error("zero completed rejoins: the chaos never exercised view repair")
	}
	if rep.Broadcasts != broadcasts {
		t.Errorf("injected %d broadcasts, want %d", rep.Broadcasts, broadcasts)
	}
	if rep.StrictChecked == 0 || rep.StrictDelivered != rep.StrictChecked {
		t.Errorf("strict delivery %d/%d, want 100%%", rep.StrictDelivered, rep.StrictChecked)
	}
	if rep.DuplicateForwards != 0 {
		t.Errorf("%d duplicated forward records across journals, want 0", rep.DuplicateForwards)
	}
}

// TestDynamicHelloAgreement: seed-matched sim and live runs with dynamic
// hello maintenance and its conservative hold must agree exactly on mean
// delivery and forward ratios and on the stale-view hold count — the same
// aggregate-agreement contract the soak harness enforces for Generic-FR,
// now with stale-view holds in the decision path on both sides.
func TestDynamicHelloAgreement(t *testing.T) {
	const n = 36
	const seed = 11
	const rounds = 24
	net, err := geo.Generate(geo.Config{N: n, AvgDegree: 6, Seed: seed},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	g := net.G
	// Beacons every 2 units with a 2.5-unit expiry: staleness fires well
	// inside the few-unit span of an FR wave, in both arms.
	dyn := &hello.Dynamic{Interval: 2, Expiry: 2.5, LossRate: 0.4, Seed: seed}
	var liveRec obsv.RunRecord
	cl, err := rt.New(g, rt.Config{
		Protocol:     func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) },
		Seed:         seed,
		DynamicHello: dyn,
		Metrics:      &liveRec,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	var simDel, liveDel, simFwd, liveFwd float64
	simHolds, liveHolds := 0, 0
	for i := 0; i < rounds; i++ {
		source := (i * 7) % n
		var simRec obsv.RunRecord
		simRes, err := sim.Run(g, source, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{
			Seed:    seed,
			Views:   sim.BeaconedViews{Hello: *dyn},
			Metrics: &simRec,
		})
		if err != nil {
			t.Fatalf("sim round %d: %v", i, err)
		}
		liveRes, err := cl.Broadcast(source, nil)
		if err != nil {
			t.Fatalf("live round %d: %v", i, err)
		}
		simDel += simRes.DeliveryRatio()
		liveDel += liveRes.DeliveryRatio()
		simFwd += float64(len(simRes.Forward)) / n
		liveFwd += float64(len(liveRes.Forward)) / n
		simHolds += simRec.StaleViewHolds
		liveHolds += liveRec.StaleViewHolds
	}
	k := float64(rounds)
	t.Logf("delivery sim %.4f live %.4f, forward sim %.4f live %.4f, stale holds sim %d live %d",
		simDel/k, liveDel/k, simFwd/k, liveFwd/k, simHolds, liveHolds)
	if simDel != liveDel {
		t.Errorf("mean delivery disagrees: sim %.4f, live %.4f", simDel/k, liveDel/k)
	}
	if simFwd != liveFwd {
		t.Errorf("mean forward ratio disagrees: sim %.4f, live %.4f", simFwd/k, liveFwd/k)
	}
	if simHolds != liveHolds {
		t.Errorf("stale-view holds disagree: sim %d, live %d", simHolds, liveHolds)
	}
	if simHolds == 0 || liveHolds == 0 {
		t.Errorf("stale-view holds sim=%d live=%d: the mechanism under test never fired", simHolds, liveHolds)
	}
}
