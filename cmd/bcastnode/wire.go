package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	rt "adhocbcast/internal/runtime"
)

// --- wires: how envelopes reach the node ---

// stdioWire speaks framed JSON over a single duplex byte stream (the
// maelstrom shape: a harness routes envelopes between processes).
type stdioWire struct {
	fr     framer
	mu     sync.Mutex
	nDrops atomic.Int64
}

func (w *stdioWire) Recv() (rt.Envelope, error) {
	for {
		frame, err := w.fr.ReadFrame()
		if errors.Is(err, errFrameOversize) {
			// The framer already discarded the payload and resynced; count
			// the loss and keep reading.
			w.nDrops.Add(1)
			continue
		}
		if errors.Is(err, errFrameTruncated) {
			// The stream died mid-frame. The partial frame is a counted
			// drop; the stream itself is over, cleanly.
			w.nDrops.Add(1)
			return rt.Envelope{}, io.EOF
		}
		if err != nil {
			return rt.Envelope{}, err
		}
		if len(bytes.TrimSpace(frame)) == 0 {
			continue
		}
		var env rt.Envelope
		if err := json.Unmarshal(frame, &env); err != nil {
			w.nDrops.Add(1)
			continue
		}
		return env, nil
	}
}

func (w *stdioWire) Drops() int64 { return w.nDrops.Load() }

func (w *stdioWire) Send(env rt.Envelope) error {
	b, err := json.Marshal(env)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fr.WriteFrame(b)
}

// udpWire sends each envelope as one JSON datagram directly to its
// destination peer. Peer addresses come from the -peers flag and are also
// learned from incoming traffic, so replies reach clients that were never
// configured.
type udpWire struct {
	conn   *net.UDPConn
	mu     sync.Mutex
	peers  map[string]*net.UDPAddr
	buf    []byte
	nDrops atomic.Int64
}

func newUDPWire(conn *net.UDPConn, peers map[string]*net.UDPAddr) *udpWire {
	if peers == nil {
		peers = make(map[string]*net.UDPAddr)
	}
	return &udpWire{conn: conn, peers: peers, buf: make([]byte, 64<<10)}
}

func (w *udpWire) Recv() (rt.Envelope, error) {
	for {
		sz, addr, err := w.conn.ReadFromUDP(w.buf)
		if err != nil {
			return rt.Envelope{}, err
		}
		var env rt.Envelope
		if err := json.Unmarshal(w.buf[:sz], &env); err != nil {
			// A malformed datagram is line noise, not a reason to die. A
			// datagram larger than the read buffer lands here too: the
			// kernel truncates the excess, so the JSON cannot parse.
			w.nDrops.Add(1)
			continue
		}
		if env.Src != "" {
			w.mu.Lock()
			w.peers[env.Src] = addr
			w.mu.Unlock()
		}
		return env, nil
	}
}

func (w *udpWire) Drops() int64 { return w.nDrops.Load() }

// UpdatePeers resolves and installs new peer addresses, replacing existing
// entries by name and leaving unnamed peers alone. All-or-nothing: a single
// unresolvable address rejects the whole update.
func (w *udpWire) UpdatePeers(peers map[string]string) error {
	resolved := make(map[string]*net.UDPAddr, len(peers))
	for name, hostport := range peers {
		addr, err := net.ResolveUDPAddr("udp", hostport)
		if err != nil {
			return fmt.Errorf("bcastnode: peer %q: %w", name, err)
		}
		resolved[name] = addr
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for name, addr := range resolved {
		w.peers[name] = addr
	}
	return nil
}

func (w *udpWire) Send(env rt.Envelope) error {
	w.mu.Lock()
	addr := w.peers[env.Dest]
	w.mu.Unlock()
	if addr == nil {
		return fmt.Errorf("bcastnode: no address for peer %q", env.Dest)
	}
	b, err := json.Marshal(env)
	if err != nil {
		return err
	}
	_, err = w.conn.WriteToUDP(b, addr)
	return err
}

// --- stream framing ---

// framer cuts a byte stream into frames. ReadFrame returns io.EOF at a clean
// end of stream.
type framer interface {
	ReadFrame() ([]byte, error)
	WriteFrame(b []byte) error
}

// lineFramer is the maelstrom framing: one JSON object per newline. A line
// longer than maxFrame is discarded up to its newline, so a newline-free
// stream cannot balloon memory.
type lineFramer struct {
	r *bufio.Reader
	w io.Writer
}

func newLineFramer(r io.Reader, w io.Writer) *lineFramer {
	// Room for a maxFrame payload plus its newline.
	return &lineFramer{r: bufio.NewReaderSize(r, maxFrame+1), w: w}
}

func (f *lineFramer) ReadFrame() ([]byte, error) {
	line, err := f.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		for err == bufio.ErrBufferFull {
			_, err = f.r.ReadSlice('\n')
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		return nil, errFrameOversize
	}
	if err == io.EOF && len(bytes.TrimSpace(line)) > 0 {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	// The slice aliases the reader's buffer until the next read.
	frame := make([]byte, len(line))
	copy(frame, line)
	return frame, nil
}

func (f *lineFramer) WriteFrame(b []byte) error {
	_, err := f.w.Write(append(b, '\n'))
	return err
}

// maxFrame bounds frames in both framings (1 MiB is far beyond any packet a
// protocol here produces).
const maxFrame = 1 << 20

// errFrameOversize reports a frame longer than maxFrame: an advertised length
// or a line. The framer has already discarded the payload, so the stream is
// positioned at the next frame and the caller may keep reading after
// counting the drop.
var errFrameOversize = errors.New("bcastnode: oversized frame dropped")

// errFrameTruncated reports a stream that ended in the middle of a frame (a
// partial length prefix or a payload shorter than its prefix promised). The
// stream is over; the caller counts the drop and treats it as a clean EOF.
var errFrameTruncated = errors.New("bcastnode: truncated frame")

// lengthFramer is the binary framing: a 4-byte big-endian length prefix
// followed by the JSON payload.
type lengthFramer struct {
	r io.Reader
	w io.Writer
}

func (f *lengthFramer) ReadFrame() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(f.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			// A partial length prefix: the stream died mid-frame.
			return nil, errFrameTruncated
		}
		return nil, err
	}
	sz := binary.BigEndian.Uint32(hdr[:])
	if sz > maxFrame {
		// Discard the oversized payload without buffering it, so a hostile
		// or corrupt prefix cannot balloon memory, then resync at the next
		// frame boundary.
		if _, err := io.CopyN(io.Discard, f.r, int64(sz)); err != nil {
			return nil, errFrameTruncated
		}
		return nil, errFrameOversize
	}
	buf := make([]byte, sz)
	if _, err := io.ReadFull(f.r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, errFrameTruncated
		}
		return nil, err
	}
	return buf, nil
}

func (f *lengthFramer) WriteFrame(b []byte) error {
	if len(b) > maxFrame {
		return fmt.Errorf("bcastnode: frame of %d bytes exceeds the %d limit", len(b), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := f.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := f.w.Write(b)
	return err
}
