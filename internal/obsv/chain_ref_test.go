package obsv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// verifyChainRef is the VerifyChain that scanned with a zeroed 1 MiB initial
// buffer and copied each payload line before hashing it, kept verbatim as the
// reference of FuzzVerifyChainMatchesReference: the small-start scanner must
// accept, reject and count links exactly as it did.
func verifyChainRef(r io.Reader) (links int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
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
			ch.Add(append(append([]byte(nil), raw...), '\n'))
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
