package obsv

import (
	"bufio"
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// sealedStream writes a small run+trace stream with interior and final
// seals, returning the raw bytes.
func sealedStream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	run := NewRunRecord()
	run.N = 3
	run.Delivered = 3
	if err := w.Write(Record{Kind: KindRun, Point: "p", Rep: 0, Run: run}); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	for rep := 1; rep <= 2; rep++ {
		ev := TraceEvent{Kind: "transmit", At: float64(rep), Node: rep, From: -1}
		if err := w.Write(Record{Kind: KindTrace, Point: "p", Rep: rep, Event: &ev}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestVerifyChainAcceptsSealedStream(t *testing.T) {
	data := sealedStream(t)
	links, err := VerifyChain(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("sealed stream rejected: %v", err)
	}
	if links != 2 {
		t.Fatalf("links = %d, want 2", links)
	}
	// The sealed stream still round-trips through the strict reader.
	recs, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Read rejected sealed stream: %v", err)
	}
	chains := 0
	for _, rec := range recs {
		if rec.Kind == KindChain {
			chains++
		}
	}
	if chains != 2 {
		t.Fatalf("Read saw %d chain records, want 2", chains)
	}
}

// TestVerifyChainDetectsEveryFlippedByte flips each byte of a sealed stream
// in turn and requires verification to fail: the chain leaves no byte of the
// stream — payload, link hashes, or structure — uncovered.
func TestVerifyChainDetectsEveryFlippedByte(t *testing.T) {
	data := sealedStream(t)
	for i := range data {
		if data[i] == '\n' {
			// Flipping a newline merges or splits lines; several of those
			// mutations are structural JSON errors rather than chain
			// mismatches, but all must fail one way or the other.
			continue
		}
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x20 // stays printable for most bytes; any flip must be caught
		if mut[i] == '\n' || mut[i] == '"' || mut[i] == '\\' {
			mut[i] = data[i] ^ 0x01
		}
		if _, err := VerifyChain(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flipped byte %d (%q -> %q) went undetected", i, data[i], mut[i])
		}
	}
}

func TestVerifyChainRejectsTruncationAndUnsealed(t *testing.T) {
	data := sealedStream(t)
	lines := bytes.SplitAfter(data, []byte("\n"))
	// Dropping the final seal leaves trailing uncovered records.
	truncated := bytes.Join(lines[:len(lines)-2], nil)
	if _, err := VerifyChain(bytes.NewReader(truncated)); err == nil {
		t.Fatal("stream missing its final seal verified")
	}
	// Dropping a covered payload line breaks the next link.
	dropped := append(append([]byte(nil), lines[0]...), bytes.Join(lines[2:], nil)...)
	if _, err := VerifyChain(bytes.NewReader(dropped)); err == nil {
		t.Fatal("stream missing a covered record verified")
	}
	// A never-sealed stream with payload must not verify.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	run := NewRunRecord()
	if err := w.Write(Record{Kind: KindRun, Run: run}); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyChain(&buf); err == nil {
		t.Fatal("unsealed stream verified")
	}
	// An empty stream is trivially valid with zero links.
	if links, err := VerifyChain(strings.NewReader("")); err != nil || links != 0 {
		t.Fatalf("empty stream: links=%d err=%v", links, err)
	}
}

// TestVerifyChainForeignPayloadLines pins the property the grid cache relies
// on: lines of any schema are covered payload, so a chain seal protects
// non-obsv records too.
func TestVerifyChainForeignPayloadLines(t *testing.T) {
	var buf bytes.Buffer
	ch := NewChainHasher()
	line := []byte(`{"schema":"grid/v1","kind":"point","config":{"x":1}}` + "\n")
	buf.Write(line)
	ch.Add(line)
	link := ch.Link()
	w := NewWriter(&buf)
	w.chain = ch // continue the same chain
	rec := Record{Schema: SchemaVersion, Kind: KindChain, Chain: &link}
	if err := w.emit(rec); err != nil {
		t.Fatal(err)
	}
	if links, err := VerifyChain(bytes.NewReader(buf.Bytes())); err != nil || links != 1 {
		t.Fatalf("foreign payload stream: links=%d err=%v", links, err)
	}
	mut := bytes.Replace(buf.Bytes(), []byte(`"x":1`), []byte(`"x":2`), 1)
	if _, err := VerifyChain(bytes.NewReader(mut)); err == nil {
		t.Fatal("tampered foreign payload verified")
	}
}

// sealForeign seals payload lines (each without its newline) with one chain
// link, the way the grid cache seals its point files.
func sealForeign(t testing.TB, lines ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, line := range lines {
		buf.WriteString(line + "\n")
		w.chain.Add([]byte(line + "\n"))
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pointFile is a one-record sealed stream shaped like a cached grid point:
// a ~520-byte foreign payload line and its chain line, about 700 bytes.
func pointFile(t testing.TB) []byte {
	t.Helper()
	return sealForeign(t, `{"schema":"grid/v1","kind":"point","pad":"`+strings.Repeat("0.123456789,", 40)+`"}`)
}

// TestVerifyChainBytesPerCall pins that verifying a small sealed file costs
// about its own size: the scanner starts small and payload lines are hashed
// in place. A zeroed 1 MiB initial buffer read 1,050,972 B per call here.
func TestVerifyChainBytesPerCall(t *testing.T) {
	data := pointFile(t)
	if n := len(data); n < 600 || n > 800 {
		t.Fatalf("point-shaped stream is %d B, want about 700", n)
	}
	const calls = 200
	verify := func() {
		if links, err := VerifyChain(bytes.NewReader(data)); err != nil || links != 1 {
			t.Fatalf("links=%d err=%v", links, err)
		}
	}
	verify()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		verify()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d B allocated per VerifyChain of a %d-byte stream", per, len(data))
	if per > 16<<10 {
		t.Fatalf("VerifyChain allocated %d B per call, want <= 16 KiB", per)
	}
}

// TestVerifyChainLongLines checks the scanner grows past its small start: a
// 2 MiB line, longer than the old initial buffer, reads and verifies, and a
// line over the 16 MiB cap still fails with bufio.ErrTooLong, in Read and in
// VerifyChain alike.
func TestVerifyChainLongLines(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	long := strings.Repeat("p", 2<<20)
	if err := w.Write(Record{Kind: KindTrace, Point: long, Event: &TraceEvent{Kind: TraceTransmit, From: -1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if links, err := VerifyChain(bytes.NewReader(buf.Bytes())); err != nil || links != 1 {
		t.Fatalf("2 MiB line: links=%d err=%v", links, err)
	}
	recs, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil || len(recs) != 2 || recs[0].Point != long {
		t.Fatalf("2 MiB line: Read got %d records, err=%v", len(recs), err)
	}

	tooLong := append(bytes.Repeat([]byte("a"), 16<<20+1), '\n')
	if _, err := VerifyChain(bytes.NewReader(tooLong)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("VerifyChain of a 16 MiB + 1 line: err=%v, want bufio.ErrTooLong", err)
	}
	if _, err := Read(bytes.NewReader(tooLong)); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("Read of a 16 MiB + 1 line: err=%v, want bufio.ErrTooLong", err)
	}
}

// FuzzVerifyChainMatchesReference runs VerifyChain and the reference it
// replaced (verifyChainRef) on any bytes: both must count the same links and
// accept or reject together, with the same error text.
func FuzzVerifyChainMatchesReference(f *testing.F) {
	sealed := sealedStream(f)
	f.Add(sealed)
	for _, i := range []int{0, 9, 40, len(sealed) / 2, len(sealed) - 20, len(sealed) - 2} {
		flip := bytes.Clone(sealed)
		flip[i] ^= 0x01
		f.Add(flip)
	}
	f.Add(sealed[:len(sealed)/2])
	f.Add(bytes.ReplaceAll(sealed, []byte("\n"), []byte("\r\n")))
	f.Add(bytes.ReplaceAll(sealed, []byte("\n"), []byte("\n\n  \n")))
	f.Add(pointFile(f))
	f.Add(sealForeign(f, `{"schema":"other/v9","kind":"chain"}`, `{"x":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		links, err := VerifyChain(bytes.NewReader(data))
		refLinks, refErr := verifyChainRef(bytes.NewReader(data))
		if links != refLinks || (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("VerifyChain = %d, %v; reference = %d, %v", links, err, refLinks, refErr)
		}
	})
}
