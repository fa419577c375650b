package sim_test

import (
	"bytes"
	"reflect"
	"testing"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// FuzzTransmitEventMatchesOracle checks that queueing a broadcast as one
// transmission event, expanded into its copies when the loop drains the
// instant, is invisible: on a graph of up to 16 vertices from the input, a
// protocol, a source, a channel drawn from the bits (1 CarrierSense, 2 a
// transmit-queue cap under it, 4 NACK recovery, 8 Collisions with TxJitter
// without it, 16 loss) and, for a non-zero faultSeed, a fault plan, the
// production loop at 1 and 2 workers must reproduce the oracle, which
// orders every copy on its own: the same Result, the same obsv/v1 JSONL
// bytes of the trace and run record, for a single run and for a traffic
// run of four sessions alike.
func FuzzTransmitEventMatchesOracle(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4, 0, 2}, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{15, 0, 1, 0, 2, 1, 3, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 2, 6, 1, 7}, uint8(3), uint8(5), uint8(1|2|4), uint8(0))
	f.Add([]byte{9, 0, 1, 0, 2, 0, 3, 1, 4, 2, 5, 3, 6, 4, 7, 5, 8, 6, 7}, uint8(0), uint8(2), uint8(8|16|4), uint8(0))
	f.Add([]byte{7, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 6, 6, 3, 0, 3}, uint8(1), uint8(10), uint8(1|4|16), uint8(7))
	f.Add([]byte{11, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 0, 5, 2, 8}, uint8(4), uint8(3), uint8(8), uint8(3))
	names := protocol.Names()
	f.Fuzz(func(t *testing.T, edges []byte, source, proto, bits, faultSeed uint8) {
		if len(edges) == 0 {
			return
		}
		sim.ShardEveryBatch(t)
		g, list := edgeGraph(t, edges)
		n := g.N()
		src := int(source) % n
		name := names[int(proto)%len(names)]
		mk, _ := protocol.ByName(name)
		cfg := sim.Config{Hops: 2, Seed: int64(bits) + 1}
		if bits&1 != 0 {
			cfg.CarrierSense = true
			if bits&2 != 0 {
				cfg.TxQueueCap = 1 + int(bits>>5)%3
			}
		} else if bits&8 != 0 {
			cfg.Collisions, cfg.TxJitter = true, 0.4
		}
		cfg.NACKRecovery = bits&4 != 0
		if bits&16 != 0 {
			cfg.LossRate = 0.3
		}
		if faultSeed != 0 {
			plan, err := fault.NewPlan(g, fault.Params{CrashFraction: 0.2, ChurnFraction: 0.2, LinkFraction: 0.2,
				Protect: []int{src}}, int64(faultSeed))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = plan
		}
		sessions := []sim.SessionSpec{{Source: src, At: 0}, {Source: (src + 1) % n, At: 0},
			{Source: (src + 2) % n, At: 1.5}, {Source: src, At: 3}}

		wantRes, wantBytes := observe(t, cfg, func(c sim.Config) (any, error) { return sim.RunOracle(g, src, mk(), c) })
		wantTraffic, wantTrafficBytes := observe(t, cfg, func(c sim.Config) (any, error) {
			return sim.RunTrafficOracle(g, sessions, mk, c)
		})
		for _, workers := range []int{1, 2} {
			c := cfg
			c.Workers = workers
			got, gotBytes := observe(t, c, func(c sim.Config) (any, error) { return sim.RunWith(nil, g, src, mk(), c) })
			if !reflect.DeepEqual(got, wantRes) || !bytes.Equal(gotBytes, wantBytes) {
				t.Errorf("%s from %d, bits %05b, faults %d, workers %d on %v: single run diverged from the oracle\n fast:   %+v\n oracle: %+v",
					name, src, bits, faultSeed, workers, list, got, wantRes)
			}
			got, gotBytes = observe(t, c, func(c sim.Config) (any, error) {
				return sim.RunTrafficWith(nil, g, sessions, mk, c)
			})
			if !reflect.DeepEqual(got, wantTraffic) || !bytes.Equal(gotBytes, wantTrafficBytes) {
				t.Errorf("%s sessions %v, bits %05b, faults %d, workers %d on %v: traffic run diverged from the oracle\n fast:   %+v\n oracle: %+v",
					name, sessions, bits, faultSeed, workers, list, got, wantTraffic)
			}
		}
	})
}

// observe runs run with a trace recorder and a run record attached to cfg
// and returns its result with the obsv/v1 JSONL of the trace events and the
// run record.
func observe(t *testing.T, cfg sim.Config, run func(sim.Config) (any, error)) (any, []byte) {
	t.Helper()
	rec, m := &sim.Recorder{}, obsv.NewRunRecord()
	cfg.Observer, cfg.Metrics = rec, m
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	w := obsv.NewWriter(&b)
	events := rec.Events()
	for i := range events {
		if err := w.Write(obsv.Record{Kind: obsv.KindTrace, Event: &events[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Write(obsv.Record{Kind: obsv.KindRun, Run: m}); err != nil {
		t.Fatal(err)
	}
	return res, b.Bytes()
}
