package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/registry"
	"repro/internal/soap"
)

// deadline is the latency limit of an op kind: regserver's default
// server-side budgets (-discovery-deadline 2s, -lcm-deadline 5s). A reply
// later than this after its intended send time counts as failed.
func deadline(k opKind) time.Duration {
	if k == opREST || k == opSOAP {
		return 2 * time.Second
	}
	return 5 * time.Second
}

// regClient drives one registry over its own keep-alive connections, one
// per lane, and checks every reply against the oracle.
type regClient struct {
	p     *plan
	base  string
	token string
	orc   *oracle
	soap  [][]byte // GetBindings envelope per key
	lanes []*lane
	aux   *http.Client // untimed requests: scrapes and final checks

	// header, when set, is added to every request (the traced run tags
	// requests with their stream index).
	header string

	mu       sync.Mutex
	failures []string // first few failure descriptions
	wrong    atomic.Int64
}

// lane is one keep-alive HTTP/1.1 connection driven synchronously: the
// request is written and the reply parsed on the sending goroutine, with
// none of net/http's transport goroutines between the timer and the wire.
type lane struct {
	host string // host:port
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  bytes.Buffer
	memo memo
}

// do sends one request and reads the whole reply into l.buf.
func (l *lane) do(method, path, header, value string, body []byte) (int, error) {
	if l.conn == nil {
		conn, err := net.DialTimeout("tcp", l.host, 5*time.Second)
		if err != nil {
			return 0, err
		}
		l.conn, l.br, l.bw = conn, bufio.NewReaderSize(conn, 64<<10), bufio.NewWriterSize(conn, 64<<10)
	}
	code, err := l.exchange(method, path, header, value, body)
	if err != nil {
		l.conn.Close()
		l.conn = nil
	}
	return code, err
}

func (l *lane) exchange(method, path, header, value string, body []byte) (int, error) {
	if err := l.conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return 0, err
	}
	w := l.bw
	w.WriteString(method + " " + path + " HTTP/1.1\r\nHost: " + l.host + "\r\n")
	if body != nil {
		w.WriteString("Content-Type: " + soap.ContentType + "\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n")
	}
	if header != "" {
		w.WriteString(header + ": " + value + "\r\n")
	}
	w.WriteString("\r\n")
	w.Write(body)
	if err := w.Flush(); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(l.br, nil)
	if err != nil {
		return 0, err
	}
	err = readAll(&l.buf, resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		err = errors.New("server closed the connection")
	}
	return resp.StatusCode, err
}

func newRegClient(p *plan, base, token string, orc *oracle, lanes int) *regClient {
	c := &regClient{p: p, base: base, token: token, orc: orc, soap: bindingsEnvelopes(p)}
	c.aux = &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < lanes; i++ {
		c.lanes = append(c.lanes, &lane{host: strings.TrimPrefix(base, "http://"), memo: memo{}})
	}
	return c
}

// bindingsEnvelopes renders each service's GetBindings request once.
func bindingsEnvelopes(p *plan) [][]byte {
	out := make([][]byte, len(p.services))
	for i := range p.services {
		out[i] = mustMarshal(&regRequest{Bindings: &registry.GetBindingsRequest{ServiceName: p.services[i].name}})
	}
	return out
}

func (c *regClient) close() {
	for _, l := range c.lanes {
		if l.conn != nil {
			l.conn.Close()
		}
	}
	c.aux.CloseIdleConnections()
}

func (c *regClient) fail(wrong bool, format string, args ...interface{}) {
	if wrong {
		c.wrong.Add(1)
	}
	c.mu.Lock()
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// send issues one op on lane w and returns how long the op was held
// back before sending to keep a key's updates in version order, when its
// reply was fully read, and whether it succeeded. The hold is the
// generator's and the reply check comes after the completion instant,
// so neither counts toward the op's latency.
func (c *regClient) send(w int, o op, id int) (held time.Duration, done time.Time, ok bool) {
	l := c.lanes[w]
	method, path := http.MethodPost, "/soap/registry"
	var body []byte
	switch o.kind {
	case opREST:
		method, path = http.MethodGet, "/registry/bindings?service="+c.p.services[o.key].name
	case opSOAP:
		body = c.soap[o.key]
	case opSubmit:
		s := &c.p.fresh[o.key]
		body = mustMarshal(&regRequest{Submit: &registry.SubmitObjectsRequest{Session: c.token,
			Objects: []registry.WireObject{wireService(s, s.cons, c.orc.uri)}}})
	case opUpdate:
		s := &c.p.services[o.key]
		body = mustMarshal(&regRequest{Update: &registry.UpdateObjectsRequest{Session: c.token,
			Objects: []registry.WireObject{wireService(s, c.orc.constraintAt(o.key, o.ver), c.orc.uri)}}})
		t := time.Now()
		c.orc.beginUpdate(o.key, o.ver)
		held = time.Since(t)
	}
	var idv string
	if c.header != "" {
		idv = strconv.Itoa(id)
	}
	sent := time.Now()
	code, err := l.do(method, path, c.header, idv, body)
	done = time.Now()
	switch {
	case err != nil:
		c.fail(false, "%s %s: %v", method, path, err)
	case code != http.StatusOK:
		// 503 sheds and SOAP faults land here.
		c.fail(false, "%s %s: status %d: %.200s", method, path, code, l.buf.Bytes())
	default:
		ok = c.verify(l, o, sent, done)
	}
	if o.kind == opUpdate {
		c.orc.endUpdate(o.key, o.ver, ok)
	}
	if ok && o.kind == opSubmit {
		c.orc.noteCreated(o.key)
	}
	return held, done, ok
}

func (c *regClient) verify(l *lane, o op, sent, done time.Time) bool {
	body := l.buf.Bytes()
	switch o.kind {
	case opREST, opSOAP:
		if err := c.orc.check(l.memo, o.kind, o.key, body, sent, done); err != nil {
			c.fail(true, "wrong answer: %v", err)
			return false
		}
	case opSubmit, opUpdate:
		var r registry.RegistryResponse
		if err := soap.Unmarshal(body, &r); err != nil || r.Status != "Success" || len(r.IDs) != 1 {
			c.fail(false, "%s: reply %v %q: %.200s", kindNames[o.kind], err, r.Status, body)
			return false
		}
	}
	return true
}

// get fetches a URL outside any timed phase.
func (c *regClient) get(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.aux.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if err := readAll(&buf, resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// sample is one timed op.
type sample struct {
	kind opKind
	at   time.Duration // intended send (open loop) or completion (closed loop), from the phase start
	lat  time.Duration // reply complete minus intended send time
	late time.Duration // actual send minus intended send time
	ok   bool
}

// sender issues one op on a lane and reports how long the generator held
// it back before sending (not charged to the op), when it completed, and
// whether it succeeded.
type sender func(lane int, o op, id int) (held time.Duration, done time.Time, ok bool)

// runOpen sends ops at their intended times over `lanes` connections.
// An op that has to wait for a lane is timed from its intended time, so a
// stall is charged to every op queued behind it (coordinated omission is
// counted, not hidden).
func runOpen(ops []op, lanes int, send sender) []sample {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < lanes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				intended := start.Add(ops[i].at)
				free := time.Now()
				if d := intended.Sub(free); d > 0 {
					sleep(d)
				}
				sent := time.Now()
				held, done, ok := send(w, ops[i], i)
				// An op that found every lane busy at its intended time
				// queued behind the system: its latency runs from the
				// intended time. One whose lane sat idle only waited on
				// the sleep timer; that lateness is the generator's,
				// reported as late but not charged to the registry.
				from := sent
				if free.After(intended) {
					from = intended
				}
				lat := done.Sub(from) - held
				if done.Sub(intended)-held > deadline(ops[i].kind) {
					ok = false
				}
				samples[i] = sample{kind: ops[i].kind, at: ops[i].at, lat: lat, late: sent.Sub(intended), ok: ok}
			}
		}(w)
	}
	wg.Wait()
	return samples
}

// sleep blocks the calling thread for d with nanosleep. The runtime's
// own timers wake on a ~1ms grid on kernels without high-resolution
// epoll timeouts, which would turn Poisson arrivals into bursts;
// nanosleep overshoots by the kernel's timer slack (~60µs) instead.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// runClosed keeps every lane busy, each sending its next op as soon as
// the previous one completes, until the ops run out or limit elapses.
func runClosed(ops []op, lanes int, limit time.Duration, send sender) (samples []sample, elapsed time.Duration) {
	samples = make([]sample, len(ops))
	var next atomic.Int64
	start := time.Now()
	end := start.Add(limit)
	var wg sync.WaitGroup
	for w := 0; w < lanes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				t0 := time.Now()
				held, done, ok := send(w, ops[i], i)
				lat := done.Sub(t0) - held
				samples[i] = sample{kind: ops[i].kind, at: done.Sub(start), lat: lat, ok: ok && lat <= deadline(ops[i].kind)}
			}
		}(w)
	}
	wg.Wait()
	elapsed = time.Since(start)
	n := int(next.Load())
	if n > len(ops) {
		n = len(ops)
	}
	return samples[:n], elapsed
}

// window is the span of one measurement window. Latency p50s and CPU per
// request are taken per window and the median across windows reported,
// so interference confined to a few windows does not move the figure.
const window = time.Second

// routeStats summarizes the samples of one op kind.
type routeStats struct {
	n, failed     int
	p50, p90, p99 time.Duration
	winP50        []time.Duration // per window, in time order
}

// summarize reduces a phase of length dur to per-kind figures. The p50
// is the median across the phase's whole windows of each window's p50;
// the tails are taken over the whole phase, which holds enough rare
// events (GC cycles, collector sweeps) to repeat from run to run.
func summarize(samples []sample, dur time.Duration) (byKind [numKinds]routeStats, failed int) {
	full := int(dur / window)
	if full < 1 {
		full = 1
	}
	var all [numKinds][]time.Duration
	wins := make([][numKinds][]time.Duration, full)
	for _, s := range samples {
		st := &byKind[s.kind]
		st.n++
		l := s.lat
		if !s.ok {
			st.failed++
			failed++
			// A failed op misses every latency limit.
			l = deadline(s.kind)
		}
		all[s.kind] = append(all[s.kind], l)
		if w := int(s.at / window); full == 1 || w < full {
			wins[min(w, full-1)][s.kind] = append(wins[min(w, full-1)][s.kind], l)
		}
	}
	for k := range byKind {
		st := &byKind[k]
		for w := range wins {
			if lat := wins[w][k]; len(lat) > 0 {
				sortDurations(lat)
				st.winP50 = append(st.winP50, quantile(lat, 0.5))
			}
		}
		p50s := append([]time.Duration(nil), st.winP50...)
		sortDurations(p50s)
		st.p50 = quantile(p50s, 0.5)
		sortDurations(all[k])
		st.p90 = quantile(all[k], 0.90)
		st.p99 = quantile(all[k], 0.99)
	}
	return byKind, failed
}

// windowRates returns the correct completions in each whole window of a
// phase, per second; a phase shorter than one window gives one rate.
func windowRates(samples []sample, elapsed time.Duration) []float64 {
	full := int(elapsed / window)
	if full < 1 {
		n := 0
		for _, s := range samples {
			if s.ok {
				n++
			}
		}
		return []float64{float64(n) / elapsed.Seconds()}
	}
	per := make([]float64, full)
	for _, s := range samples {
		if w := int(s.at / window); s.ok && w < full {
			per[w] += 1 / window.Seconds()
		}
	}
	return per
}

// interquartileMean is the mean of the middle half of v: robust to a few
// disturbed windows.
func interquartileMean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// cpuSampler reads the registry processes' CPU ticks at every window
// boundary of a phase.
type cpuSampler struct {
	pids  []int
	stop  chan struct{}
	done  chan struct{}
	ticks []int64
	err   error
}

func startCPUSampler(pids []int) *cpuSampler {
	c := &cpuSampler{pids: pids, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		t := time.NewTicker(window)
		defer t.Stop()
		for {
			var sum int64
			for _, pid := range c.pids {
				n, err := cpuTicks(pid)
				if err != nil && c.err == nil {
					c.err = err
				}
				sum += n
			}
			c.ticks = append(c.ticks, sum)
			select {
			case <-c.stop:
				return
			case <-t.C:
			}
		}
	}()
	return c
}

// perRequest stops the sampler and returns, for each whole window, the
// registry CPU time in nanoseconds per request issued in that window.
func (c *cpuSampler) perRequest(samples []sample) ([]float64, error) {
	close(c.stop)
	<-c.done
	if c.err != nil {
		return nil, c.err
	}
	full := len(c.ticks) - 1
	if full < 1 {
		return nil, fmt.Errorf("cpu sampler: phase shorter than one %v window", window)
	}
	reqs := make([]float64, full)
	for _, s := range samples {
		if w := int(s.at / window); w < full {
			reqs[w]++
		}
	}
	var per []float64
	for w := 0; w < full; w++ {
		if reqs[w] > 0 {
			per = append(per, float64(c.ticks[w+1]-c.ticks[w])*float64(clockTick)/reqs[w])
		}
	}
	return per, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
