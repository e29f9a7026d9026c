package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"snaple/internal/core"
)

// This file is the fault injector of the engine's equivalence harness: a
// transport wrapper that fires scripted faults at frames. A test wraps a
// worker's accepted net.Conn in a ChaosTransport and hands it to
// ServeConnWith, so a stall, a crash that cuts the connection, a flipped bit
// or a silent blackhole hits the coordinator at the protocol point the script
// names (the worker's first partials frame, say, or its reading of superstep
// 2's step-begin), on any graph and scope. It reads the frame header layout
// (frame.go), which is why it lives in this package.

// ChaosDir selects which direction of the wrapped transport an event watches.
type ChaosDir int

const (
	// ChaosReads watches the frames arriving from the peer.
	ChaosReads ChaosDir = iota
	// ChaosWrites watches the frames sent to the peer.
	ChaosWrites
)

// ChaosOp is the fault to inject.
type ChaosOp int

const (
	// ChaosDelay stalls the frame before it passes, for Delay or until Hold
	// is closed, then lets it through untouched: jitter, not a failure.
	ChaosDelay ChaosOp = iota
	// ChaosCorrupt flips one bit of the frame's first payload byte (of its
	// payload CRC when the payload is empty): the receiver's CRC-32C check
	// catches it and kills the connection.
	ChaosCorrupt
	// ChaosCut closes the underlying transport before the frame passes: the
	// signature of a crashed process.
	ChaosCut
	// ChaosDrop blackholes the direction from the frame on: writes report
	// success but deliver nothing, reads consume the peer's bytes but return
	// none. Only a deadline can detect it.
	ChaosDrop
)

// ChaosEvent is one scripted fault: Op fires on the first frame of direction
// Dir with kind Kind and step Step (zero: any step).
type ChaosEvent struct {
	Dir   ChaosDir
	Kind  Kind
	Step  core.DistStep
	Op    ChaosOp
	Delay time.Duration   // ChaosDelay only
	Hold  <-chan struct{} // ChaosDelay only: when set, stall until it is closed instead
}

// ChaosTransport wraps a transport carrying frames and injects scripted
// faults at them. It is safe for one concurrent reader and one concurrent
// writer, like the net.Conn it wraps, and passes deadlines through, so
// Conn.SetDeadline still bounds a blackholed stream.
type ChaosTransport struct {
	rwc    io.ReadWriteCloser
	fired  func(ChaosEvent)
	mu     sync.Mutex
	events []ChaosEvent
	r, w   chaosCursor
}

// chaosCursor tracks one direction's position in its frame stream.
type chaosCursor struct {
	hdr  [frameHeaderSize]byte
	have int    // header bytes gathered, before the header is judged
	pend []byte // judged header bytes not yet delivered (reads)
	body int    // bytes of the current frame left after its header
	flip bool   // corrupt the next body byte
	drop bool
}

// NewChaosTransport wraps rwc with the given fault script. fired, when not
// nil, is called as each event fires, before its fault takes effect.
func NewChaosTransport(rwc io.ReadWriteCloser, events []ChaosEvent, fired func(ChaosEvent)) *ChaosTransport {
	return &ChaosTransport{rwc: rwc, fired: fired, events: append([]ChaosEvent(nil), events...)}
}

// judge matches a complete frame header of direction dir against the script
// and applies what fires: a stall here, the rest through the cursor. It
// reports whether the transport was cut.
func (t *ChaosTransport) judge(dir ChaosDir, cur *chaosCursor) (cut bool) {
	h := cur.hdr[:]
	cur.body = int(binary.LittleEndian.Uint32(h[12:])) + frameTrailerSize
	kind, step := Kind(h[4]), core.DistStep(h[6])
	t.mu.Lock()
	var fire []ChaosEvent
	for i := 0; i < len(t.events); i++ {
		ev := &t.events[i]
		if ev.Dir != dir || ev.Kind != kind || ev.Step != 0 && ev.Step != step {
			continue
		}
		fire = append(fire, *ev)
		t.events = append(t.events[:i], t.events[i+1:]...)
		i--
	}
	t.mu.Unlock()
	for _, ev := range fire {
		if t.fired != nil {
			t.fired(ev)
		}
		switch ev.Op {
		case ChaosDelay:
			if ev.Hold != nil {
				<-ev.Hold
			} else {
				time.Sleep(ev.Delay)
			}
		case ChaosCorrupt:
			cur.flip = true
		case ChaosCut:
			_ = t.rwc.Close()
			return true
		case ChaosDrop:
			cur.drop = true
		}
	}
	return false
}

// Read implements io.Reader. A frame header is gathered and judged before any
// of it is delivered, so a fault fires before the reader sees its frame.
func (t *ChaosTransport) Read(p []byte) (int, error) {
	c := &t.r
	for len(c.pend) == 0 && c.body == 0 && !c.drop {
		n, err := t.rwc.Read(c.hdr[c.have:])
		if c.have += n; c.have == frameHeaderSize {
			c.have, c.pend = 0, c.hdr[:]
			if t.judge(ChaosReads, c) {
				return 0, fmt.Errorf("wire: chaos cut reading a %s frame", Kind(c.hdr[4]))
			}
		}
		if err != nil && len(c.pend) == 0 {
			return 0, err
		}
	}
	if c.drop {
		// Keep consuming so the peer never blocks on flow control, but
		// deliver nothing: a deadline or a close is the only way out.
		for buf := make([]byte, 4096); ; {
			if _, err := t.rwc.Read(buf); err != nil {
				return 0, err
			}
		}
	}
	if len(c.pend) > 0 {
		n := copy(p, c.pend)
		c.pend = c.pend[n:]
		return n, nil
	}
	n, err := t.rwc.Read(p[:min(len(p), c.body)])
	if n > 0 && c.flip {
		p[0] ^= 0x20
		c.flip = false
	}
	c.body -= n
	return n, err
}

// Write implements io.Writer. Header bytes are held until the header is
// complete and judged, then pass (or vanish) with the frame.
func (t *ChaosTransport) Write(p []byte) (int, error) {
	c, total := &t.w, len(p)
	for len(p) > 0 {
		var out []byte
		switch {
		case c.drop:
			return total, nil
		case c.body > 0:
			out = p[:min(len(p), c.body)]
			c.body -= len(out)
			p = p[len(out):]
			if c.flip {
				out = append([]byte{out[0] ^ 0x20}, out[1:]...)
				c.flip = false
			}
		default:
			k := copy(c.hdr[c.have:], p)
			c.have += k
			p = p[k:]
			if c.have < frameHeaderSize {
				return total, nil
			}
			c.have = 0
			if t.judge(ChaosWrites, c) {
				return total - len(p), fmt.Errorf("wire: chaos cut writing a %s frame", Kind(c.hdr[4]))
			}
			if c.drop {
				return total, nil
			}
			out = c.hdr[:]
		}
		if _, err := t.rwc.Write(out); err != nil {
			return total - len(p), err
		}
	}
	return total, nil
}

// Close closes the underlying transport.
func (t *ChaosTransport) Close() error { return t.rwc.Close() }

// SetDeadline passes deadlines through.
func (t *ChaosTransport) SetDeadline(tm time.Time) error {
	if d, ok := t.rwc.(interface{ SetDeadline(time.Time) error }); ok {
		return d.SetDeadline(tm)
	}
	return nil
}
