package obsv

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
)

// ChainLink is the payload of a KindChain record: one link of a hash chain
// over the raw record lines of a JSONL stream. A link covers every line
// written since the previous link (chain lines themselves are excluded); its
// hash commits to both those bytes and the previous link, so flipping a
// single byte anywhere in a sealed stream — payload, earlier link, or the
// link itself — makes VerifyChain fail. Streams are sealed by Writer.Seal
// and verified by VerifyChain.
type ChainLink struct {
	// Prev is the hex-encoded hash of the previous link, or "" for the
	// first link of the stream.
	Prev string `json:"prev"`
	// Hash is hex(SHA-256(Prev || covered bytes)), where the covered bytes
	// are the raw record lines — trailing newlines included — written since
	// the previous link.
	Hash string `json:"hash"`
	// Lines is the number of record lines the link covers.
	Lines int `json:"lines"`
}

// ChainHasher accumulates the hash-chain state of a JSONL stream: feed it
// every record line (newline included) via Add, and Link returns the link
// covering the lines added since the previous Link and advances the chain.
// The zero value is not ready; use NewChainHasher.
type ChainHasher struct {
	prev  string
	h     hash.Hash
	lines int
}

// NewChainHasher returns a hasher at the head of a fresh chain.
func NewChainHasher() *ChainHasher {
	return &ChainHasher{h: sha256.New()}
}

// Add folds one raw record line into the pending link. The line must include
// its trailing newline so the covered bytes reconstruct the stream exactly.
func (c *ChainHasher) Add(line []byte) {
	c.h.Write(line)
	c.lines++
}

// newline is the line terminator addStripped hashes after a line.
var newline = []byte{'\n'}

// addStripped is Add for a line whose trailing newline a scanner stripped:
// it hashes the line and then the newline, without copying the line.
func (c *ChainHasher) addStripped(line []byte) {
	c.h.Write(line)
	c.h.Write(newline)
	c.lines++
}

// Link seals the pending lines into a ChainLink and starts the next link.
func (c *ChainHasher) Link() ChainLink {
	link := ChainLink{
		Prev:  c.prev,
		Hash:  hex.EncodeToString(c.h.Sum(nil)),
		Lines: c.lines,
	}
	c.prev = link.Hash
	c.h = sha256.New()
	io.WriteString(c.h, c.prev)
	c.lines = 0
	return link
}

// chainProbe is the minimal parse VerifyChain needs per line: enough to
// recognize a chain record without committing to any payload schema.
type chainProbe struct {
	Schema string     `json:"schema"`
	Kind   string     `json:"kind"`
	Chain  *ChainLink `json:"chain"`
}

// VerifyChain checks the hash chain of a sealed JSONL stream. Every line
// must be valid JSON; lines that are obsv chain records are verified against
// the recomputed chain (previous link, covered bytes, covered line count),
// all other lines — whatever their schema — are the covered payload. The
// stream must end sealed: trailing payload lines not covered by a link are
// an error, as is a stream with payload but no links at all. It returns the
// number of verified links. A line longer than 16 MiB fails with
// bufio.ErrTooLong.
func VerifyChain(r io.Reader) (links int, err error) {
	sc := newLineScanner(r)
	ch := NewChainHasher()
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var probe chainProbe
		if err := json.Unmarshal(raw, &probe); err != nil {
			return links, fmt.Errorf("obsv: chain: line %d: malformed JSON: %w", line, err)
		}
		if probe.Schema != SchemaVersion || probe.Kind != KindChain {
			// Payload line: covered by the next link. Scanner strips the
			// newline; restore it so the hash matches the written bytes.
			ch.addStripped(raw)
			continue
		}
		if probe.Chain == nil {
			return links, fmt.Errorf("obsv: chain: line %d: chain record without chain payload", line)
		}
		want := ch.Link()
		got := *probe.Chain
		if got != want {
			return links, fmt.Errorf("obsv: chain: line %d: link mismatch (stream tampered or truncated): got {prev:%.8s hash:%.8s lines:%d}, want {prev:%.8s hash:%.8s lines:%d}",
				line, got.Prev, got.Hash, got.Lines, want.Prev, want.Hash, want.Lines)
		}
		// Chain lines are excluded from hash coverage, so pin their bytes
		// directly: the line must be the canonical encoding of the verified
		// link. Without this, mutations json.Unmarshal tolerates (key case
		// flips, reordering, padding) would go unnoticed.
		canonical, err := json.Marshal(Record{Schema: SchemaVersion, Kind: KindChain, Chain: &want})
		if err != nil {
			return links, err
		}
		if !bytes.Equal(raw, canonical) {
			return links, fmt.Errorf("obsv: chain: line %d: chain record not in canonical form", line)
		}
		links++
	}
	if err := sc.Err(); err != nil {
		return links, err
	}
	if ch.lines > 0 {
		return links, fmt.Errorf("obsv: chain: %d record line(s) after the last chain link are not covered (stream truncated or never sealed)", ch.lines)
	}
	return links, nil
}
