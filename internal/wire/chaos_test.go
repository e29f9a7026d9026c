package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestChaosTransportScript pins the fault injector itself: offsets are
// exact, faults fire once, and the stream around them is untouched.
func TestChaosTransportScript(t *testing.T) {
	t.Run("corrupt-one-byte", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		ct := NewChaosTransport(b, []ChaosEvent{{Dir: ChaosWrites, Op: ChaosCorrupt, At: 3}})
		go func() {
			_, _ = ct.Write([]byte("abcdefgh"))
			ct.Close()
		}()
		got, err := io.ReadAll(a)
		if err != nil {
			t.Fatal(err)
		}
		want := []byte("abcDefgh") // 'd' ^ 0x20
		if !bytes.Equal(got, want) {
			t.Fatalf("read %q, want %q", got, want)
		}
	})
	t.Run("cut-at-offset", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		ct := NewChaosTransport(b, []ChaosEvent{{Dir: ChaosWrites, Op: ChaosCut, At: 4}})
		res := make(chan error, 1)
		go func() {
			_, err := ct.Write([]byte("abcdefgh"))
			res <- err
		}()
		got, _ := io.ReadAll(a)
		if !bytes.Equal(got, []byte("abcd")) {
			t.Fatalf("read %q before the cut, want %q", got, "abcd")
		}
		if err := <-res; err == nil {
			t.Fatal("cut write reported success")
		}
	})
	t.Run("drop-blackholes-writes", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		ct := NewChaosTransport(b, []ChaosEvent{{Dir: ChaosWrites, Op: ChaosDrop, At: 2}})
		go func() {
			if n, err := ct.Write([]byte("abcdefgh")); n != 8 || err != nil {
				t.Errorf("blackholed write: n=%d err=%v, want full success", n, err)
			}
			ct.Close()
		}()
		got, _ := io.ReadAll(a)
		if !bytes.Equal(got, []byte("ab")) {
			t.Fatalf("read %q, want only the pre-drop %q", got, "ab")
		}
	})
	t.Run("delay-then-continue", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		const pause = 50 * time.Millisecond
		ct := NewChaosTransport(b, []ChaosEvent{{Dir: ChaosWrites, Op: ChaosDelay, At: 4, Delay: pause}})
		start := time.Now()
		go func() {
			_, _ = ct.Write([]byte("abcdefgh"))
			ct.Close()
		}()
		got, _ := io.ReadAll(a)
		if !bytes.Equal(got, []byte("abcdefgh")) {
			t.Fatalf("read %q, want the full untouched stream", got)
		}
		if d := time.Since(start); d < pause {
			t.Fatalf("stream finished in %v, want a %v stall", d, pause)
		}
	})
}

// TestWorkerSurvivesHostileSessions is the worker hardening satellite:
// garbage before the handshake, a legacy gob peer, line noise, a corrupt
// hello, a corrupt frame mid-session, an attach with no shard to run over, an
// attach for another fleet's shard, a ship to a pinned worker and a ship of a
// shard that breaks an invariant must each cost exactly one session — a typed error frame where the transport still
// works, then a close — and the worker must serve the next coordinator
// normally. The healthy mini-session after every hostile one is the survival
// assertion.
func TestWorkerSurvivesHostileSessions(t *testing.T) {
	addr := serveWorkers(t, ServeOptions{})
	healthy := func(t *testing.T) {
		t.Helper()
		c, err := DialWith(addr, DialOptions{})
		if err != nil {
			t.Fatalf("dial after hostile session: %v", err)
		}
		defer c.Close()
		runMiniSession(t, c)
	}

	t.Run("garbage-before-handshake", func(t *testing.T) {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// No v3 magic, and the peer is gone before the refusal can be sent:
		// the handshake must fail the session, not the process.
		_, _ = raw.Write(bytes.Repeat([]byte{'X'}, 64))
		raw.Close()
		healthy(t)
	})

	for name, opening := range refusedOpenings() {
		t.Run(name, func(t *testing.T) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			if _, err := raw.Write(opening); err != nil {
				t.Fatal(err)
			}
			// The worker answers with the mismatch as a typed error frame,
			// then closes.
			_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
			c := NewConn(raw)
			_, err = c.Recv()
			if !IsRemoteError(err) || !strings.Contains(err.Error(), ErrProtocolMismatch.Error()) {
				t.Fatalf("worker answered %v, want ErrProtocolMismatch in a typed error frame", err)
			}
			if _, err := c.Recv(); !errors.Is(err, io.EOF) {
				t.Fatalf("after the refusal: %v, want the connection closed", err)
			}
			healthy(t)
		})
	}

	t.Run("corrupt-hello", func(t *testing.T) {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// v3 magic so the worker commits to the framed protocol, then junk
		// where the hello frame should be.
		_, _ = raw.Write(append([]byte(frameMagic), bytes.Repeat([]byte{0xFF}, 40)...))
		// The worker reports the handshake failure before closing; drain
		// until its close so the write above is known delivered.
		_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, _ = io.Copy(io.Discard, raw)
		raw.Close()
		healthy(t)
	})

	t.Run("corrupt-frame-mid-session", func(t *testing.T) {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c := NewConn(raw)
		defer c.Close()
		for _, open := range []*Msg{
			{Kind: KindHello, Version: ProtocolVersion},
			{Kind: KindShip, Version: ProtocolVersion, Shard: miniShard},
			miniAttach(),
		} {
			if err := c.Send(open); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Recv(); err != nil {
				t.Fatalf("answer to %s: %v", open.Kind, err)
			}
		}
		// Mid-session garbage where a frame header belongs. The worker must
		// answer with a typed error frame, not die silently (and certainly
		// not crash the serve loop).
		if _, err := raw.Write(bytes.Repeat([]byte{0xAB}, 32)); err != nil {
			t.Fatal(err)
		}
		_, err = c.Expect(KindStepBegin)
		if err == nil {
			t.Fatal("worker accepted a garbage frame")
		}
		if !IsRemoteError(err) {
			t.Fatalf("err = %v, want the worker's typed error frame", err)
		}
		healthy(t)
	})

	// refused sends msgs over a fresh connection to the worker at addr —
	// every one but the last must be answered Ready — and returns the typed
	// refusal of the last, after which the worker must have hung up.
	refused := func(t *testing.T, addr string, msgs ...*Msg) error {
		t.Helper()
		c, err := DialWith(addr, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(5 * time.Second))
		for i, m := range msgs {
			if err := c.Send(m); err != nil {
				t.Fatal(err)
			}
			_, err := c.Expect(KindReady)
			if i < len(msgs)-1 {
				if err != nil {
					t.Fatalf("%s refused: %v", m.Kind, err)
				}
				continue
			}
			if !IsRemoteError(err) {
				t.Fatalf("%s answered %v, want a typed error frame", m.Kind, err)
			}
			if _, eof := c.Recv(); !errors.Is(eof, io.EOF) {
				t.Fatalf("after the refusal: %v, want the connection closed", eof)
			}
			return err
		}
		return nil
	}

	t.Run("attach-before-any-ship", func(t *testing.T) {
		err := refused(t, addr, miniAttach())
		if !strings.Contains(err.Error(), "holds no shard") {
			t.Fatalf("refusal = %v, want it to say the worker holds no shard", err)
		}
		healthy(t)
	})

	t.Run("attach-fingerprint-differs-from-shipped", func(t *testing.T) {
		other := miniAttach()
		other.Attach.Fingerprint++
		err := refused(t, addr, &Msg{Kind: KindShip, Version: ProtocolVersion, Shard: miniShard}, other)
		if !IsManifestMismatch(err) {
			t.Fatalf("refusal = %v, want a manifest mismatch", err)
		}
		healthy(t)
	})

	// A shipped shard decodes through graph.ReadShard exactly as a pinned one
	// loads: a broken one gets the shard decoder's typed refusal, no Ready, no
	// session — and never an attach that fails later, or a gather that
	// quietly detours.
	for name, shard := range hostileShards() {
		t.Run("ship-"+name, func(t *testing.T) {
			err := refused(t, addr, &Msg{Kind: KindShip, Version: ProtocolVersion, Shard: shard})
			if !strings.Contains(err.Error(), "recv ship: graph: shard:") {
				t.Fatalf("refusal = %v, want the shard decoder's verdict", err)
			}
			healthy(t)
		})
	}

	t.Run("ship-to-a-pinned-worker", func(t *testing.T) {
		pinned := serveWorkers(t, ServeOptions{Resident: &miniShard})
		err := refused(t, pinned, &Msg{Kind: KindShip, Version: ProtocolVersion, Shard: miniShard})
		if !strings.Contains(err.Error(), "manifest") {
			t.Fatalf("refusal = %v, want it to point at the manifest", err)
		}
		// The pinned shard is untouched: an attach alone opens a job over it.
		c, err := DialWith(pinned, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Send(miniAttach()); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Expect(KindReady); err != nil {
			t.Fatalf("attach to the pinned shard: %v", err)
		}
	})
}
