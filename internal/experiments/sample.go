package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// SampleRun is one broadcast on the Figure 9 sample network.
type SampleRun struct {
	// Label identifies the algorithm ("static", "FR", "FRB").
	Label string
	// Hops is the view depth used.
	Hops int
	// Forward lists the forward nodes in transmission order.
	Forward []int
}

// Sample reproduces Figure 9: a single random 100-node network on which the
// static, first-receipt, and first-receipt-with-backoff generic algorithms
// are run with 2- and 3-hop views, yielding the forward sets to render.
type Sample struct {
	// Net is the generated network.
	Net *geo.Network
	// Source is the broadcast source.
	Source int
	// Runs holds one entry per (algorithm, hops) combination.
	Runs []SampleRun
}

// NewSample generates the Figure 9 sample scenario from the given seed.
func NewSample(n int, d float64, seed int64) (*Sample, error) {
	rng := rand.New(rand.NewSource(seed))
	net, err := geo.Generate(geo.Config{N: n, AvgDegree: d}, rng)
	if err != nil {
		return nil, err
	}
	s := &Sample{Net: net, Source: rng.Intn(n)}
	timings := []struct {
		label  string
		timing protocol.Timing
	}{
		{label: "static", timing: protocol.TimingStatic},
		{label: "FR", timing: protocol.TimingFirstReceipt},
		{label: "FRB", timing: protocol.TimingBackoffRandom},
	}
	arena := arenas.Get().(*sim.Arena)
	defer arenas.Put(arena)
	for _, hops := range []int{2, 3} {
		for _, t := range timings {
			res, err := sim.RunWith(arena, net.G, s.Source, protocol.Generic(t.timing), sim.Config{
				Hops:   hops,
				Metric: view.MetricID,
				Seed:   seed + 1,
			})
			if err != nil {
				return nil, err
			}
			if !res.FullDelivery() {
				return nil, fmt.Errorf("sample %s/%d-hop delivered %d/%d",
					t.label, hops, res.Delivered, res.N)
			}
			s.Runs = append(s.Runs, SampleRun{
				Label:   t.label,
				Hops:    hops,
				Forward: res.Forward,
			})
		}
	}
	return s, nil
}

// Render draws the sample network as an ASCII grid of the given width and
// height: forward nodes of the selected run are '#', the source 'S', other
// nodes '.', empty space ' '.
func (s *Sample) Render(run SampleRun, width, height int) string {
	if width < 10 {
		width = 10
	}
	if height < 10 {
		height = 10
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	forward := make(map[int]bool, len(run.Forward))
	for _, v := range run.Forward {
		forward[v] = true
	}
	side := 100.0
	for v, p := range s.Net.Pos {
		x := int(p.X / side * float64(width-1))
		y := int(p.Y / side * float64(height-1))
		ch := byte('.')
		if forward[v] {
			ch = '#'
		}
		if v == s.Source {
			ch = 'S'
		}
		grid[height-1-y][x] = ch
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s, %d-hop: %d forward nodes\n", run.Label, run.Hops, len(run.Forward))
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}
