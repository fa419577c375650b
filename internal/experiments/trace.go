package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"adhocbcast/internal/graph"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/sim"
)

// traceSink writes the JSONL observability export of one data point: for
// every replicate, one obsv run record followed by the replicate's trace
// events. Replicates may run concurrently (RunUntilCIParallel), so each
// replicate's lines are buffered and appended in one locked write — lines of
// different replicates may interleave in the file, but every line carries its
// (point, rep) key and a single replicate's lines stay contiguous and
// ordered. A nil *traceSink is a no-op, which is how the drivers stay
// zero-cost when no trace directory is configured.
//
// The sink writes through an obsv.AtomicFile: lines accumulate in a hidden
// temp file and the final <point>.jsonl appears only when the point's last
// replicate has flushed and the stream is sealed with a hash-chain record. A
// sweep killed mid-point therefore leaves at worst a ".tmp-*" file behind —
// never a truncated export that a later obsv.Read would choke on — and every
// published file passes obsv.VerifyChain.
type traceSink struct {
	point string
	mu    sync.Mutex
	f     *obsv.AtomicFile
	w     *obsv.Writer
	err   error // first write error; reported once at finish
}

// newTraceSink opens the sink for one data point under rc.TraceDir, or
// returns nil when tracing is off. The file name is derived from the point
// label, one file per data point.
func (rc RunConfig) newTraceSink(point string) (*traceSink, error) {
	if rc.TraceDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(rc.TraceDir, 0o755); err != nil {
		return nil, err
	}
	name := filepath.Join(rc.TraceDir, sanitizePoint(point)+".jsonl")
	f, err := obsv.CreateAtomic(name)
	if err != nil {
		return nil, err
	}
	return &traceSink{point: point, f: f, w: obsv.NewWriter(f)}, nil
}

// sanitizePoint keeps point labels filesystem-safe.
func sanitizePoint(point string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.', r == '=':
			return r
		default:
			return '_'
		}
	}, point)
}

// arenas lends simulator arenas to every driver in the package: a replicate
// (or a fixed-sweep worker) borrows one while it runs, so a sweep's runs —
// whatever cell, curve or figure they belong to — reuse one set of simulator
// state per concurrent run. See sim.Arena for what a lent arena pins.
var arenas = sync.Pool{New: func() any { return sim.NewArena() }}

// run simulates one replicate — proto broadcasts from w's source over g, w's
// network or one derived from it, under cfg — with the replicate's records
// attached and exported: a metrics record and (unless the driver already
// installed its own Recorder) a trace recorder go onto cfg, and both are
// written once the run completes. annotate, when non-nil, runs between the
// simulation and the write, to add counters only the driver can compute to
// the run record. The run adopts w's settled verdicts and leaves w any it
// settled. On a nil sink run is exactly sim.Run on a borrowed arena, so
// instrumented results can differ from uninstrumented ones only in cost.
func (s *traceSink) run(rep int, w workload, g *graph.Graph, proto sim.Protocol, cfg sim.Config,
	annotate func(*obsv.RunRecord) error) (sim.Result, error) {
	arena := arenas.Get().(*sim.Arena)
	defer arenas.Put(arena)
	var rr *obsv.RunRecord
	if s != nil {
		if cfg.Observer == nil {
			cfg.Observer = &sim.Recorder{}
		}
		rr = obsv.NewRunRecord()
		cfg.Metrics = rr
	}
	w.offerVerdicts(arena)
	res, err := sim.RunWith(arena, g, w.source, proto, cfg)
	if err != nil {
		return res, err
	}
	w.keepVerdicts(arena)
	if s == nil {
		return res, nil
	}
	if annotate != nil {
		if err := annotate(rr); err != nil {
			return res, err
		}
	}
	return res, s.write(rep, rr, cfg.Observer.Events())
}

// write appends one replicate's run record and trace events atomically.
func (s *traceSink) write(rep int, rr *obsv.RunRecord, events []obsv.TraceEvent) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if err := s.w.Write(obsv.Record{Kind: obsv.KindRun, Point: s.point, Rep: rep, Run: rr}); err != nil {
		s.err = err
		return err
	}
	for i := range events {
		if err := s.w.Write(obsv.Record{Kind: obsv.KindTrace, Point: s.point, Rep: rep, Event: &events[i]}); err != nil {
			s.err = err
			return err
		}
	}
	return nil
}

// finish completes the sink given the point's measurement error: on failure
// (the measurement's or the sink's own deferred write error) the pending
// temp file is discarded so no partial export is published; on success the
// stream is sealed and atomically renamed into place. It returns the first
// error among the measurement, deferred writes, and publication. Safe on a
// nil sink.
func (s *traceSink) finish(err error) error {
	if s == nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil && s.err != nil {
		err = fmt.Errorf("trace %s: %w", s.point, s.err)
	}
	if err != nil {
		s.f.Abort()
		return err
	}
	if serr := s.w.Seal(); serr != nil {
		s.f.Abort()
		return fmt.Errorf("trace %s: %w", s.point, serr)
	}
	if cerr := s.f.Commit(); cerr != nil {
		return fmt.Errorf("trace %s: %w", s.point, cerr)
	}
	return nil
}
