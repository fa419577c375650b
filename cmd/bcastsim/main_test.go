package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"adhocbcast/internal/protocol"
)

func TestRunDefault(t *testing.T) {
	if err := run([]string{"-n", "40", "-d", "6", "-seed", "3"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunEveryProtocolName(t *testing.T) {
	for _, name := range protocol.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			err := run([]string{"-n", "30", "-d", "6", "-proto", name, "-seed", "2"})
			if err != nil {
				t.Fatalf("run -proto %s: %v", name, err)
			}
		})
	}
}

func TestRunRender(t *testing.T) {
	if err := run([]string{"-render", "-n", "60", "-seed", "4"}); err != nil {
		t.Fatalf("run -render: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "unknown protocol", args: []string{"-proto", "bogus"}},
		{name: "unknown metric", args: []string{"-metric", "bogus"}},
		{name: "impossible degree", args: []string{"-n", "5", "-d", "30"}},
		{name: "NaN degree", args: []string{"-d", "NaN"}},
		{name: "infinite degree", args: []string{"-d", "Inf"}},
		{name: "overflowing degree", args: []string{"-d", "1e300"}},
		{name: "bad flag", args: []string{"-definitely-not-a-flag"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Fatalf("run(%v) succeeded, want error", tt.args)
			}
		})
	}
}

func TestProtocolNamesSorted(t *testing.T) {
	names := protocol.Names()
	if len(names) < 15 {
		t.Fatalf("only %d protocols registered", len(names))
	}
	for i := 1; i < len(names); i++ {
		if strings.Compare(names[i-1], names[i]) >= 0 {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestRunTrace(t *testing.T) {
	if err := run([]string{"-n", "20", "-d", "5", "-trace", "-seed", "6"}); err != nil {
		t.Fatalf("run -trace: %v", err)
	}
}

// TestRunPrintsViewDepth pins the protocol line's view depth: -hops 0 and
// any negative depth run the global view and must say so.
func TestRunPrintsViewDepth(t *testing.T) {
	tests := []struct {
		hops string
		want string
	}{
		{hops: "2", want: ", 2-hop views, "},
		{hops: "0", want: ", global views, "},
		{hops: "-3", want: ", global views, "},
	}
	for _, tt := range tests {
		t.Run("hops="+tt.hops, func(t *testing.T) {
			out := captureStdout(t, func() {
				if err := run([]string{"-n", "30", "-d", "6", "-seed", "2", "-hops", tt.hops}); err != nil {
					t.Fatalf("run -hops %s: %v", tt.hops, err)
				}
			})
			if !strings.Contains(out, tt.want) || strings.Contains(out, tt.hops+"-hop views") != (tt.hops == "2") {
				t.Fatalf("run -hops %s printed:\n%s\nwant the protocol line to contain %q", tt.hops, out, tt.want)
			}
		})
	}
}

// captureStdout returns what fn writes to os.Stdout, which is restored even
// if fn fails the test.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	// Buffered so the reader goroutine ends even when fn never returns here.
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r) // a read error only shortens the captured text
		r.Close()
		done <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	func() {
		defer func() {
			os.Stdout = stdout
			w.Close()
		}()
		fn()
	}()
	return <-done
}
