// Package grid executes declarative experiment grids with content-addressed
// result caching: a grid spec (grid.json or a Go-side Spec) expands into the
// fully-resolved data points of the repository's figure, extension, and
// scale sweeps, each point's result is stored in a file keyed by the SHA-256
// of its canonical configuration, and reruns skip every point whose file
// already verifies — an interrupted sweep resumes where it died instead of
// starting over. All files are written atomically (temp file + rename, see
// obsv.AtomicFile) and carry obsv/v1 hash-chain seals, so a kill leaves no
// partial file and a flipped byte in any cached point or manifest is
// detected by Verify rather than silently poisoning a regenerated table.
//
// The package drives the experiment drivers through their Runner hooks
// (experiments.RunConfig.Runner, experiments.ScaleConfig.Runner), so a grid
// point is exactly one driver data point. cmd/experiments runs its flags as a
// one-table spec through the same executor (Execute, with no cache), so
// cold-run tables are byte-identical to its output.
package grid

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// PointSchema versions the canonical point-configuration layout. Any change
// to PointConfig's fields or their JSON encoding changes every hash, so it
// doubles as the cache-invalidation epoch: bump it and the whole cache
// recomputes.
const PointSchema = "grid/point/v1"

// PointConfig is the canonical, fully-resolved configuration of one grid
// point — everything that determines the point's result and nothing that
// does not (parallelism, output paths, and progress plumbing never change
// measured values, so they are excluded). Its canonical JSON encoding is
// hashed to content-address the point's cache file.
//
// Exactly one of the two trailing field groups is used: CI-replicated points
// (figures and extensions) carry MinRuns/MaxRuns/RelTol and zero
// Replicates/Degree; fixed-replication scale points carry Replicates/Degree
// and zero MinRuns/MaxRuns/RelTol. No field is omitempty: zeroes are
// encoded, so the hash input has a fixed shape.
type PointConfig struct {
	// Schema is PointSchema.
	Schema string `json:"schema"`
	// Experiment is the driver that owns the point: "fig10".."fig16",
	// "ext:<name>", or "scale".
	Experiment string `json:"experiment"`
	// Point is the driver's data-point label, e.g. "10/d=6, 2-hop/FR/n=60/d=6"
	// or "scale/n=1000/d=18/reps=5". Labels encode the panel, variant, and
	// sweep coordinates, so together with the fields below they pin the
	// point completely.
	Point string `json:"point"`
	// Seed is the base workload seed the driver derives every per-replicate
	// seed from (see experiments deriveSeed).
	Seed int64 `json:"seed"`
	// MinRuns, MaxRuns, and RelTol are the CI replication criterion of
	// figure and extension points.
	MinRuns int     `json:"min_runs"`
	MaxRuns int     `json:"max_runs"`
	RelTol  float64 `json:"rel_tol"`
	// Replicates and Degree are the fixed replication count and target
	// average degree of scale points.
	Replicates int `json:"replicates"`
	Degree     int `json:"degree"`
}

// Hash returns the content address of the point: the hex SHA-256 of the
// canonical JSON encoding. Go encodes struct fields in declaration order
// and float64s in their shortest round-tripping form, so the encoding — and
// therefore the hash — is deterministic across runs and machines.
func (c PointConfig) Hash() string {
	data, err := json.Marshal(c)
	if err != nil {
		// A struct of scalars cannot fail to marshal; any error here is a
		// future field breaking the canonical-encoding contract.
		panic(fmt.Sprintf("grid: PointConfig not canonically encodable: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
