package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/hello"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// TestOneSessionTrafficMatchesRun pins that a single broadcast is session 0
// of a traffic run: for every registered protocol under clean, contention-MAC,
// lossy, slot-collision, faulty, beaconed-view and global-view channels, a
// one-session RunTrafficWith injected at t=0 reports the counters, finish time,
// latency and forward-set histograms and view-level record fields of the
// same Run, and records the same events apart from its one session-start.
func TestOneSessionTrafficMatchesRun(t *testing.T) {
	net, err := geo.Generate(geo.Config{N: 60, AvgDegree: 6}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("generate network: %v", err)
	}
	plan, err := fault.NewPlan(net.G, fault.Params{
		CrashFraction: 0.15,
		ChurnFraction: 0.10,
		LinkFraction:  0.10,
		Protect:       []int{0},
	}, 11)
	if err != nil {
		t.Fatalf("fault plan: %v", err)
	}
	scenarios := []struct {
		name string
		cfg  sim.Config
	}{
		{"clean", sim.Config{Hops: 2, Seed: 1}},
		{"cs-queue-nack", sim.Config{Hops: 2, CarrierSense: true, TxQueueCap: 2, NACKRecovery: true, Seed: 3}},
		{"loss-nack", sim.Config{Hops: 2, LossRate: 0.3, NACKRecovery: true, Seed: 5}},
		{"collisions-jitter", sim.Config{Hops: 2, Collisions: true, TxJitter: 0.4, Seed: 9}},
		{"faults", sim.Config{Hops: 2, Faults: plan, Seed: 2}},
		{"beaconed-views", sim.Config{Hops: 2, Views: sim.BeaconedViews{Hello: hello.Dynamic{Interval: 0.5, Expiry: 0.7, LossRate: 0.5, Seed: 3}}, Seed: 8}},
		{"global-view-tail-drop", sim.Config{Hops: 0, CarrierSense: true, TxQueueCap: 1, Seed: 4}},
	}
	arena := sim.NewArena()
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for _, name := range protocol.Names() {
				mk, _ := protocol.ByName(name)
				cfg := sc.cfg
				single, multi := &sim.Recorder{}, &sim.Recorder{}
				singleRec, multiRec := obsv.NewRunRecord(), obsv.NewRunRecord()
				cfg.Observer, cfg.Metrics = single, singleRec
				want, err := sim.RunWith(arena, net.G, 0, mk(), cfg)
				if err != nil {
					t.Fatalf("%s: run: %v", name, err)
				}
				cfg.Observer, cfg.Metrics = multi, multiRec
				got, err := sim.RunTrafficWith(arena, net.G, []sim.SessionSpec{{Source: 0}}, mk, cfg)
				if err != nil {
					t.Fatalf("%s: traffic run: %v", name, err)
				}
				if got.Sessions != 1 || got.N != want.N || got.Finish != want.Finish ||
					got.Delivered != want.Delivered || got.Forward != want.ForwardCount() ||
					got.Copies != want.Copies || got.Receipts != want.Receipts ||
					got.Lost != want.Lost || got.Collided != want.Collided ||
					got.DroppedNodeDown != want.DroppedNodeDown || got.DroppedLinkDown != want.DroppedLinkDown ||
					got.TimersCancelled != want.TimersCancelled || got.NACKs != want.NACKs ||
					got.Retransmits != want.Retransmits || got.QueueDrops != want.QueueDrops ||
					got.MACDeferrals != want.MACDeferrals {
					t.Errorf("%s: counters diverged\n traffic: %+v\n run:     %+v", name, got, want)
				}
				if !reflect.DeepEqual(multiRec.Latency, singleRec.Latency) ||
					!reflect.DeepEqual(multiRec.ForwardSet, singleRec.ForwardSet) {
					t.Errorf("%s: latency or forward-set histogram diverged", name)
				}
				if multiRec.StaleViewHolds != singleRec.StaleViewHolds {
					t.Errorf("%s: traffic record holds %d stale views, the run's %d", name, multiRec.StaleViewHolds, singleRec.StaleViewHolds)
				}
				events := multi.Events()
				if len(events) == 0 || events[0].Kind != obsv.TraceSessionStart {
					t.Fatalf("%s: traffic trace does not open with its session start", name)
				}
				wantTrace, gotTrace := single.Events(), events[1:]
				if !reflect.DeepEqual(gotTrace, wantTrace) {
					i := firstTraceDiff(gotTrace, wantTrace)
					t.Errorf("%s: trace diverged at event %d (traffic %d / run %d events)",
						name, i, len(gotTrace), len(wantTrace))
				}
			}
		})
	}
}
