package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"syscall"
	"time"
)

// nproc is the load shape's width: sender goroutines and keep-alive HTTP
// connections. It matches the sandbox's two cores and is a constant so
// that numbers from different machines describe the same load.
const nproc = 2

// op is one request of a workload's deterministic stream.
type op struct {
	write bool // POST /v1/edges rather than /v1/predict
	path  string
	body  []byte
	ids   []uint32 // predict: the queried ids, in request order
}

// loadgen drives one server with a workload's op stream, first open loop
// then closed loop, over at most nproc connections.
type loadgen struct {
	client *http.Client
	base   string // "http://host:port"
	// next yields the stream's following op. Calls are serialised.
	next func() op
	// verify checks a 200 reply's body against the oracle.
	verify func(o op, body []byte) error
	tr     *tracer

	mu  sync.Mutex // orders next() with the op counter
	seq int64      // ops handed out so far, across phases (request ids)
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		},
	}
}

// phase is what one load phase measured. Latencies are in ms.
type phase struct {
	reads, writes []float64 // latency of verified 200s
	late          []float64 // how late the generator itself sent each op
	sent, failed  int
	backlogMax    int // most ops that were due but not yet sent
	elapsed       time.Duration
	firstErr      error
}

// run sends ops for dur. With rate > 0 the phase is open loop: op i is due
// at i/rate after the start whatever the server does, and its latency runs
// from that due time, so a stall is charged to every request it delays.
// With rate == 0 it is closed loop: each of the nproc clients sends its
// next op when the previous reply is in.
func (lg *loadgen) run(ctx context.Context, rate float64, dur time.Duration) phase {
	var (
		res   phase
		resMu sync.Mutex
		wg    sync.WaitGroup
		start = time.Now()
		total = int64(rate * dur.Seconds())
		taken int64
	)
	// An open-loop phase sends all its ops even when that takes longer
	// than dur; past this point the backlog is clearly not draining and the
	// rest are counted as failed instead.
	giveUp := start.Add(dur + 10*time.Second)

	claim := func() (o op, idx, req int64, ok bool) {
		lg.mu.Lock()
		defer lg.mu.Unlock()
		if rate > 0 && taken >= total {
			return op{}, 0, 0, false
		}
		if rate == 0 && time.Since(start) >= dur {
			return op{}, 0, 0, false
		}
		idx = taken
		taken++
		lg.seq++
		return lg.next(), idx, lg.seq, true
	}

	for range nproc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				o, idx, req, ok := claim()
				if !ok {
					return
				}
				free := time.Now()
				due := free
				backlog := 0
				if rate > 0 {
					due = start.Add(time.Duration(float64(idx) / rate * float64(time.Second)))
					if free.After(giveUp) {
						resMu.Lock()
						res.sent++
						res.failed++
						resMu.Unlock()
						continue
					}
					if wait := due.Sub(free); wait > 0 {
						sleepPrecisely(wait)
					} else {
						backlog = int(free.Sub(start).Seconds()*rate) - int(idx)
					}
				}
				sendAt := time.Now()
				body, err := lg.send(ctx, o)
				recvAt := time.Now()
				if err == nil {
					err = lg.verify(o, body)
				}
				doneAt := time.Now()

				resMu.Lock()
				res.sent++
				res.backlogMax = max(res.backlogMax, backlog)
				// The generator's own lateness: time lost after both the
				// op was due and a sender was free to send it.
				ready := due
				if free.After(due) {
					ready = free
				}
				res.late = append(res.late, ms(sendAt.Sub(ready)))
				switch {
				case err != nil:
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				case o.write:
					res.writes = append(res.writes, ms(recvAt.Sub(due)))
				default:
					res.reads = append(res.reads, ms(recvAt.Sub(due)))
				}
				resMu.Unlock()

				if lg.tr != nil {
					parent := lg.tr.add("request", due, doneAt, 0, req, nil)
					lg.tr.add("loadgen.wait", due, sendAt, parent, req, nil)
					lg.tr.add("http.roundtrip", sendAt, recvAt, parent, req, nil)
					lg.tr.add("verify", recvAt, doneAt, parent, req, nil)
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

func (lg *loadgen) send(ctx context.Context, o op) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, lg.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := lg.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", o.path, resp.StatusCode, body)
	}
	return body, nil
}

// add pools another phase of the same kind into p.
func (p *phase) add(q phase) {
	p.reads = append(p.reads, q.reads...)
	p.writes = append(p.writes, q.writes...)
	p.late = append(p.late, q.late...)
	p.sent += q.sent
	p.failed += q.failed
	p.backlogMax = max(p.backlogMax, q.backlogMax)
	p.elapsed += q.elapsed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// sleepPrecisely blocks the calling thread in nanosleep(2). time.Sleep
// parks the goroutine on the runtime's timers, which an otherwise idle
// process polls at millisecond granularity: senders woke 0.5-1 ms late,
// and measured from the due time that lateness was most of a cache hit's
// latency.
func sleepPrecisely(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return // done; or EINVAL/EFAULT, which a positive duration cannot cause
		}
		ts = rem
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the nearest-rank p-quantile of samples (sorted in
// place). Zero samples give 0: a metric that does not apply to a workload
// reads 0, and a run in which every request failed still prints its result.
func quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	i := int(math.Ceil(p*float64(len(samples))-1e-9)) - 1 // the epsilon keeps 0.95*200 at rank 190
	return samples[min(max(i, 0), len(samples)-1)]
}

// tailLadder is the percentiles a tail metric may report, highest first.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// tail reports the highest percentile at or below want that has at least
// ten samples beyond it: a p99 over 300 samples is the third-worst sample
// and says nothing about the tail. It returns the percentile it used; when
// even the median lacks ten samples beyond it, it is the median.
func tail(samples []float64, want float64) (value, used float64) {
	for _, p := range tailLadder {
		if p <= want && float64(len(samples))*(1-p) >= 10-1e-9 {
			return quantile(samples, p), p
		}
	}
	return quantile(samples, 0.50), 0.50
}
