package grid

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"adhocbcast/internal/obsv"
)

// RecordSchema versions the grid's own JSONL record lines (cached points and
// manifest entries). The obsv chain records interleaved with them keep their
// own obsv/v1 schema.
const RecordSchema = "grid/v1"

// Record kinds of RecordSchema lines.
const (
	// KindPoint lines carry one cached point: its config and result.
	KindPoint = "point"
	// KindEntry manifest lines reference one point of a generated table.
	KindEntry = "entry"
	// KindTable manifest lines carry the generated table's content hash.
	KindTable = "table"
)

// Cache is a content-addressed store of computed grid points plus the
// per-table manifests tracing each generated results file to the exact
// point set that produced it. Layout under the root directory:
//
//	points/<hash>.jsonl      one cached point, <hash> = PointConfig.Hash()
//	manifests/<output>.jsonl one manifest per generated table
//
// Every file is two-plus lines of JSONL sealed with an obsv chain record and
// written atomically, so interrupted writers leave no partial files and
// tampering is detectable (Verify, VerifyAll).
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	for _, sub := range []string{"points", "manifests"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// pointRecord is the first line of a cached point file.
type pointRecord struct {
	Schema string          `json:"schema"`
	Kind   string          `json:"kind"`
	Config PointConfig     `json:"config"`
	Result json.RawMessage `json:"result"`
}

func (c *Cache) pointPath(hash string) string {
	return filepath.Join(c.dir, "points", hash+".jsonl")
}

// Get looks the point's config up by content address. On a hit the cached
// result is decoded into out and Get returns true. A present-but-corrupt
// file — failed chain verification, config mismatch, undecodable result —
// is an error, never a silent miss: a tampered cache must not quietly
// recompute (hiding the tampering) or serve bad data.
func (c *Cache) Get(cfg PointConfig, out any) (bool, error) {
	return c.get(cfg, cfg.Hash(), out)
}

// get is Get for a config whose content address hash the caller holds.
func (c *Cache) get(cfg PointConfig, hash string, out any) (bool, error) {
	path := c.pointPath(hash)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	rec, err := parsePointFile(path, data)
	if err != nil {
		return false, err
	}
	if rec.Config != cfg {
		// The file is named by cfg's hash, so only a record carrying another
		// config can sit at the wrong address: rehash it to say so.
		if err := checkAddress(path, rec.Config); err != nil {
			return false, err
		}
		return false, fmt.Errorf("%s: cached config does not match its content address (cache tampered?)", path)
	}
	if err := json.Unmarshal(rec.Result, out); err != nil {
		return false, fmt.Errorf("%s: cached result: %w", path, err)
	}
	return true, nil
}

// Put stores one computed point, atomically: the file appears under its
// content address only complete and sealed.
func (c *Cache) Put(cfg PointConfig, result any) error {
	return c.put(cfg, cfg.Hash(), result)
}

// put is Put for a config whose content address hash the caller holds.
func (c *Cache) put(cfg PointConfig, hash string, result any) error {
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("encode result for %s: %w", cfg.Point, err)
	}
	line, err := json.Marshal(pointRecord{Schema: RecordSchema, Kind: KindPoint, Config: cfg, Result: raw})
	if err != nil {
		return err
	}
	return obsv.WriteFileAtomic(c.pointPath(hash), sealLines(append(line, '\n')))
}

// sealLines appends the obsv chain record covering lines (newline-terminated
// JSONL bytes), producing a stream that passes obsv.VerifyChain.
func sealLines(lines []byte) []byte {
	return append(lines, seal(lines)...)
}

// seal returns the newline-terminated obsv chain record covering lines.
func seal(lines []byte) []byte {
	ch := obsv.NewChainHasher()
	for _, line := range bytes.SplitAfter(lines, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		ch.Add(line)
	}
	link := ch.Link()
	sealed, err := json.Marshal(obsv.Record{Schema: obsv.SchemaVersion, Kind: obsv.KindChain, Chain: &link})
	if err != nil {
		panic(fmt.Sprintf("grid: chain record not encodable: %v", err))
	}
	return append(sealed, '\n')
}

// parsePointFile verifies one cached point file (chain seal, schema) and
// returns its point record; checkAddress checks its content address. A file
// as put wrote it — a grid record line, then exactly that line's seal — is
// decoded once: a line of the grid's schema is chain payload, so the seal
// alone decides what obsv.VerifyChain would (a line ending in a carriage
// return, which VerifyChain's scanner strips, is left to it). Any other file
// gets VerifyChain's diagnosis before its record is decoded.
func parsePointFile(path string, data []byte) (pointRecord, error) {
	var rec pointRecord
	first, rest, ok := bytes.Cut(data, []byte("\n"))
	if !ok || json.Unmarshal(first, &rec) != nil || rec.Schema != RecordSchema ||
		bytes.HasSuffix(first, []byte("\r")) || !bytes.Equal(rest, seal(data[:len(first)+1])) {
		if _, err := obsv.VerifyChain(bytes.NewReader(data)); err != nil {
			return pointRecord{}, fmt.Errorf("%s: %w", path, err)
		}
		if !ok {
			return pointRecord{}, fmt.Errorf("%s: empty point file", path)
		}
		rec = pointRecord{}
		if err := json.Unmarshal(first, &rec); err != nil {
			return pointRecord{}, fmt.Errorf("%s: %w", path, err)
		}
	}
	if rec.Schema != RecordSchema || rec.Kind != KindPoint {
		return pointRecord{}, fmt.Errorf("%s: not a %s %s record (schema %q kind %q)",
			path, RecordSchema, KindPoint, rec.Schema, rec.Kind)
	}
	return rec, nil
}

// checkAddress reports whether cfg hashes to the point file's name.
func checkAddress(path string, cfg PointConfig) error {
	want := strings.TrimSuffix(filepath.Base(path), ".jsonl")
	if got := cfg.Hash(); got != want {
		return fmt.Errorf("%s: config hashes to %.12s…, file claims %.12s… (cache tampered?)", path, got, want)
	}
	return nil
}

// VerifyAll checks every cached point file: chain seal intact, config
// matching its content address. It returns the number of verified points;
// all corrupt files are reported together.
func (c *Cache) VerifyAll() (int, error) {
	entries, err := os.ReadDir(filepath.Join(c.dir, "points"))
	if err != nil {
		return 0, err
	}
	verified := 0
	var errs []error
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		path := filepath.Join(c.dir, "points", e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		rec, err := parsePointFile(path, data)
		if err == nil {
			err = checkAddress(path, rec.Config)
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		verified++
	}
	return verified, errors.Join(errs...)
}

// manifestEntry is one point reference of a table manifest.
type manifestEntry struct {
	Schema     string `json:"schema"`
	Kind       string `json:"kind"`
	Experiment string `json:"experiment"`
	Point      string `json:"point"`
	Hash       string `json:"hash"`
}

// manifestTable is the closing line of a table manifest: the generated
// file's name and content hash.
type manifestTable struct {
	Schema string `json:"schema"`
	Kind   string `json:"kind"`
	Output string `json:"output"`
	SHA256 string `json:"sha256"`
}

func (c *Cache) manifestPath(output string) string {
	return filepath.Join(c.dir, "manifests", output+".jsonl")
}

// WriteManifest records the provenance of one generated table: the sorted
// point set that produced it and the table's content hash, sealed and
// written atomically.
func (c *Cache) WriteManifest(output string, entries []manifestEntry, tableSHA string) error {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Experiment != entries[j].Experiment {
			return entries[i].Experiment < entries[j].Experiment
		}
		return entries[i].Point < entries[j].Point
	})
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range entries {
		entries[i].Schema = RecordSchema
		entries[i].Kind = KindEntry
		if err := enc.Encode(entries[i]); err != nil {
			return err
		}
	}
	if err := enc.Encode(manifestTable{Schema: RecordSchema, Kind: KindTable, Output: output, SHA256: tableSHA}); err != nil {
		return err
	}
	return obsv.WriteFileAtomic(c.manifestPath(output), sealLines(buf.Bytes()))
}

// readManifest parses and chain-verifies one table manifest.
func (c *Cache) readManifest(output string) ([]manifestEntry, manifestTable, error) {
	path := c.manifestPath(output)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, manifestTable{}, err
	}
	if _, err := obsv.VerifyChain(bytes.NewReader(data)); err != nil {
		return nil, manifestTable{}, fmt.Errorf("%s: %w", path, err)
	}
	var entries []manifestEntry
	var table manifestTable
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var probe struct {
			Schema string `json:"schema"`
			Kind   string `json:"kind"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, manifestTable{}, fmt.Errorf("%s: %w", path, err)
		}
		switch {
		case probe.Schema == RecordSchema && probe.Kind == KindEntry:
			var e manifestEntry
			if err := json.Unmarshal(line, &e); err != nil {
				return nil, manifestTable{}, fmt.Errorf("%s: %w", path, err)
			}
			entries = append(entries, e)
		case probe.Schema == RecordSchema && probe.Kind == KindTable:
			if err := json.Unmarshal(line, &table); err != nil {
				return nil, manifestTable{}, fmt.Errorf("%s: %w", path, err)
			}
		}
	}
	if table.Output == "" {
		return nil, manifestTable{}, fmt.Errorf("%s: manifest has no table record", path)
	}
	return entries, table, nil
}

// Manifests lists the outputs that have a recorded manifest.
func (c *Cache) Manifests() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(c.dir, "manifests"))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".jsonl") {
			out = append(out, strings.TrimSuffix(e.Name(), ".jsonl"))
		}
	}
	sort.Strings(out)
	return out, nil
}
