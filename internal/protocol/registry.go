package protocol

import (
	"sort"
	"strings"

	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// registry maps canonical CLI names to protocol factories, shared by every
// command that selects a protocol by name (cmd/bcastsim, cmd/bcastnode).
var registry = map[string]func() sim.Protocol{
	"flooding":       Flooding,
	"generic-static": func() sim.Protocol { return Generic(TimingStatic) },
	"generic-fr":     func() sim.Protocol { return Generic(TimingFirstReceipt) },
	"generic-frb":    func() sim.Protocol { return Generic(TimingBackoffRandom) },
	"generic-frbd":   func() sim.Protocol { return Generic(TimingBackoffDegree) },
	"sp":             SelfPruningFR,
	"nd":             NeighborDesignatingFR,
	"maxdeg":         HybridMaxDeg,
	"minpri":         HybridMinPri,
	"wuli":           WuLi,
	"rulek":          RuleK,
	"span":           Span,
	"mpr":            MPR,
	"sba":            SBA,
	"stojmenovic":    Stojmenovic,
	"limkim-sp":      LimKimSelfPruning,
	"ahbp":           AHBP,
	"lenwb":          LENWB,
	"dp":             DP,
	"pdp":            PDP,
	"tdp":            TDP,
}

// ByName returns the factory registered under name (case-insensitive). The
// second result reports whether the name is known.
func ByName(name string) (func() sim.Protocol, bool) {
	mk, ok := registry[strings.ToLower(name)]
	return mk, ok
}

// metrics maps CLI names to priority metrics.
var metrics = map[string]view.Metric{
	"id":     view.MetricID,
	"degree": view.MetricDegree,
	"ncr":    view.MetricNCR,
}

// MetricByName returns the priority metric registered under name (id,
// degree, ncr; case-insensitive). The second result reports whether the name
// is known.
func MetricByName(name string) (view.Metric, bool) {
	m, ok := metrics[strings.ToLower(name)]
	return m, ok
}

// Names returns the sorted list of registered protocol names.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
