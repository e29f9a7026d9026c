package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// stallServer answers instantly except that request number stallAt holds
// the whole server (one lock) for stall. It also tracks how many
// connections were ever open at once.
type stallServer struct {
	*httptest.Server
	mu       sync.Mutex
	requests int

	connMu        sync.Mutex
	open, maxOpen int
}

func newStallServer(stallAt int, stall time.Duration) *stallServer {
	s := &stallServer{}
	s.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.requests == stallAt {
			time.Sleep(stall)
		}
		s.requests++
		w.WriteHeader(http.StatusOK)
	}))
	s.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		s.connMu.Lock()
		defer s.connMu.Unlock()
		switch st {
		case http.StateNew:
			s.open++
			s.maxOpen = max(s.maxOpen, s.open)
		case http.StateClosed, http.StateHijacked:
			s.open--
		}
	}
	s.Start()
	return s
}

func testLoadgen(base string) *loadgen {
	return &loadgen{
		client: newClient(), base: base,
		next:   func() op { return op{path: "/", ids: nil} },
		verify: func(op, []byte) error { return nil },
	}
}

// A 100 ms stall at 100 req/s delays ten requests. An open-loop generator
// that times from the due time must show nine or so of them as slow; one
// that timed from the actual send (coordinated omission) would show one.
func TestOpenLoopCountsTheStall(t *testing.T) {
	srv := newStallServer(50, 100*time.Millisecond)
	defer srv.Close()
	lg := testLoadgen(srv.URL)
	defer lg.client.CloseIdleConnections()

	ph := lg.run(context.Background(), 100, 2*time.Second)
	if ph.sent != 200 || ph.failed != 0 {
		t.Fatalf("sent %d failed %d (%v), want 200 and 0", ph.sent, ph.failed, ph.firstErr)
	}
	slow := 0
	for _, l := range ph.reads {
		if l > 10 {
			slow++
		}
	}
	if slow < 9 {
		t.Errorf("%d samples above 10 ms, want >= 9: the stall's queueing delay was hidden", slow)
	}
	if len(ph.late) != ph.sent {
		t.Errorf("lateness reported for %d of %d ops", len(ph.late), ph.sent)
	}
	if ph.backlogMax < 5 {
		t.Errorf("backlog_max %d, want the stall's backlog (>= 5)", ph.backlogMax)
	}
	if srv.maxOpen > nproc {
		t.Errorf("%d connections open at once, want <= %d", srv.maxOpen, nproc)
	}
}

func TestClosedLoopStopsOnTime(t *testing.T) {
	srv := newStallServer(-1, 0)
	defer srv.Close()
	lg := testLoadgen(srv.URL)
	defer lg.client.CloseIdleConnections()

	ph := lg.run(context.Background(), 0, 200*time.Millisecond)
	if ph.failed != 0 || len(ph.reads) == 0 {
		t.Fatalf("failed %d, %d reads (%v)", ph.failed, len(ph.reads), ph.firstErr)
	}
	if ph.elapsed > time.Second {
		t.Errorf("closed loop ran %v for a 200 ms phase", ph.elapsed)
	}
	if srv.maxOpen > nproc {
		t.Errorf("%d connections open at once, want <= %d", srv.maxOpen, nproc)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n          int
		want, used float64
		value      float64
	}{
		{2000, 0.99, 0.99, 1980},
		{999, 0.99, 0.95, 950}, // 9.99 samples beyond p99: refused
		{200, 0.99, 0.95, 190},
		{199, 0.99, 0.90, 180},
		{1000, 0.90, 0.90, 900}, // never above what the workload asks for
		{15, 0.99, 0.50, 8},     // nothing qualifies: the median
	} {
		v, used := tail(samples(tc.n), tc.want)
		if used != tc.used || v != tc.value {
			t.Errorf("tail(%d samples, p%.0f) = %v at p%.0f, want %v at p%.0f", tc.n, tc.want*100, v, used*100, tc.value, tc.used*100)
		}
	}
}
