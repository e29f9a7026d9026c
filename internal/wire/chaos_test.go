package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"snaple/internal/core"
	"snaple/internal/leakcheck"
)

// TestChaosTransportScript pins the fault injector itself: an event fires on
// the first frame it names (direction, kind, step) and on no other, fires
// once, reports itself before its fault takes effect, and leaves the stream
// around it untouched.
func TestChaosTransportScript(t *testing.T) {
	empty := []byte{0, 0, 0, 0} // a batch of no records
	// pair returns a coordinator-side Conn and a worker-side one whose
	// transport runs events, and the channel each fired event lands on.
	pair := func(t *testing.T, events ...ChaosEvent) (coord, worker *Conn, fired chan ChaosEvent) {
		a, b := net.Pipe()
		fired = make(chan ChaosEvent, len(events))
		coord, worker = NewConn(a), NewConn(NewChaosTransport(b, events, func(ev ChaosEvent) { fired <- ev }))
		t.Cleanup(func() { coord.Close(); worker.Close() })
		return coord, worker, fired
	}
	send := func(c *Conn, kind Kind, step core.DistStep) <-chan error {
		done := make(chan error, 1)
		go func() { done <- c.SendRaw(kind, step, true, empty) }()
		return done
	}

	t.Run("cut-on-reading-a-step", func(t *testing.T) {
		coord, worker, fired := pair(t, ChaosEvent{Dir: ChaosReads, Kind: KindStepBegin, Step: core.DistRelays, Op: ChaosCut})
		for _, step := range []core.DistStep{core.DistTruncate, core.DistRelays} {
			done := send(coord, KindStepBegin, step)
			f, err := worker.RecvRaw()
			if step == core.DistTruncate && (err != nil || f.Kind != KindStepBegin || f.Step != step) {
				t.Fatalf("step-begin %v arrived as %+v, %v", step, f, err)
			}
			if step == core.DistRelays && err == nil {
				t.Fatalf("the worker read the relays step-begin it was scripted to die on")
			}
			<-done
		}
		if ev := <-fired; ev.Step != core.DistRelays {
			t.Fatalf("fired %+v", ev)
		}
	})
	t.Run("corrupt-the-first-partials", func(t *testing.T) {
		coord, worker, fired := pair(t, ChaosEvent{Dir: ChaosWrites, Kind: KindPartials, Op: ChaosCorrupt})
		for i, kind := range []Kind{KindReady, KindPartials} {
			done := send(worker, kind, core.DistTruncate)
			_, err := coord.RecvRaw()
			if (err != nil) != (i == 1) || i == 1 && !strings.Contains(err.Error(), "CRC") {
				t.Fatalf("frame %d (%s): err = %v", i, kind, err)
			}
			<-done
		}
		if len(fired) != 1 {
			t.Fatalf("%d events fired, want 1", len(fired))
		}
	})
	t.Run("drop-blackholes-from-the-frame-on", func(t *testing.T) {
		coord, worker, _ := pair(t, ChaosEvent{Dir: ChaosWrites, Kind: KindPartials, Op: ChaosDrop})
		done := make(chan error, 1)
		go func() {
			var err error
			for _, kind := range []Kind{KindReady, KindPartials, KindReady} {
				if err == nil {
					err = worker.SendRaw(kind, 0, true, empty)
				}
			}
			done <- err
		}()
		_ = coord.SetDeadline(time.Now().Add(100 * time.Millisecond))
		if f, err := coord.RecvRaw(); err != nil || f.Kind != KindReady {
			t.Fatalf("first frame: %+v, %v", f, err)
		}
		if _, err := coord.RecvRaw(); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("after the drop: %v, want the deadline", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("blackholed sends: %v, want success", err)
		}
	})
	t.Run("hold-stalls-until-released", func(t *testing.T) {
		hold := make(chan struct{})
		coord, worker, fired := pair(t, ChaosEvent{Dir: ChaosWrites, Kind: KindPartials, Step: core.DistCombine, Op: ChaosDelay, Hold: hold})
		done := send(worker, KindPartials, core.DistCombine)
		<-fired // reported before the stall
		_ = coord.SetDeadline(time.Now().Add(50 * time.Millisecond))
		if _, err := coord.RecvRaw(); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("held frame: %v, want the deadline", err)
		}
		_ = coord.SetDeadline(time.Time{})
		close(hold)
		if f, err := coord.RecvRaw(); err != nil || f.Kind != KindPartials || f.Step != core.DistCombine || !bytes.Equal(f.Payload, empty) {
			t.Fatalf("released frame: %+v, %v", f, err)
		}
		<-done
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
	leakcheck.Check(t)
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
