// Command perfbench is the repository's end-to-end benchmark. It boots the
// real regserver binary on a loopback port, serves seeded simulated hosts
// over NodeStatus, publishes a seeded fixture over SOAP, and drives one
// workload open-loop at a fixed rate and then closed-loop, checking every
// answer against an oracle. With -trace 1 it also replays the same stream
// against an in-process registry with spans around each layer and prints
// per-layer metrics instead.
//
// Usage (from the repository root, after building regserver):
//
//	perfbench -regserver .bench_build/regserver -workload hot-reads -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/store"
)

// lanes is the number of client connections: nproc on the reference box,
// so the generator never outnumbers the cores the registry runs on.
const lanes = 2

// setups is how many deployments a run sets up and measures in turn.
const setups = 3

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	regserver string
	build     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: hot-reads|cold-reads|write-mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: fixture, host state and request streams")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.regserver, "regserver", ".bench_build/regserver", "regserver binary")
	flag.StringVar(&o.build, "build", ".bench_build", "directory for data dirs, logs, spans and reports")
	flag.Parse()
	// A run must end within 180s; the children die with this process.
	time.AfterFunc(175*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 175s")
		os.Exit(1)
	})
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	wl, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if _, err := os.Stat(o.regserver); err != nil {
		return fmt.Errorf("regserver binary: %w", err)
	}
	// Reports and spans accumulate here across runs; each run replaces
	// only its own scratch directories inside.
	out := filepath.Join(o.build, "perfbench-"+wl.name)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	fp := fingerprint()
	fmt.Printf("fingerprint %s\n", fp)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", wl.name, o.seed, o.seconds, o.trace)

	var res *result
	var rep report
	if o.trace == 0 {
		res, rep, err = untraced(ctx, o, wl, out, 0.2*float64(o.seconds), 0.8*float64(o.seconds), setups)
	} else {
		res, rep, err = traced(ctx, o, wl, out)
	}
	if err != nil {
		return err
	}
	rep.Fingerprint, rep.Seed, rep.Workload, rep.Trace = fp, o.seed, wl.name, o.trace
	rep.Result = res
	if err := writeJSON(filepath.Join(out, fmt.Sprintf("result-seed%d-trace%d.json", o.seed, o.trace)), rep); err != nil {
		return err
	}
	rep.print()
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("incorrect answers or lost writes; see the report above")
	}
	return nil
}

// report is the human- and machine-readable record of one run, printed
// before the result line and saved next to it.
type report struct {
	Fingerprint string             `json:"fingerprint"`
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       int                `json:"trace"`
	Lines       []string           `json:"lines"`
	Extra       map[string]float64 `json:"extra"`
	Result      *result            `json:"result"`
}

func (r *report) addf(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *report) print() {
	for _, l := range r.Lines {
		fmt.Println(l)
	}
	keys := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-36s %.6g\n", k, r.Extra[k])
	}
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func fingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(l, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("goos=%s goarch=%s gomaxprocs=%d nproc=%d cpu=%q go=%s kernel=%s",
		runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), model, runtime.Version(), kernel)
}

// env is one set-up registry deployment: hosts, leader (and follower on
// durable workloads), a logged-in client and the oracle.
type env struct {
	p        *plan
	hosts    *hostFleet
	leader   *child
	follower *child
	client   *regClient
	orc      *oracle
}

func (e *env) close() {
	if e.client != nil {
		e.client.close()
	}
	if e.follower != nil {
		e.follower.stop()
	}
	if e.leader != nil {
		e.leader.stop()
	}
	if e.hosts != nil {
		e.hosts.close()
	}
}

func (e *env) bases() []string {
	bases := []string{e.leader.base}
	if e.follower != nil {
		bases = append(bases, e.follower.base)
	}
	return bases
}

func (e *env) pids() []int {
	pids := []int{e.leader.pid()}
	if e.follower != nil {
		pids = append(pids, e.follower.pid())
	}
	return pids
}

// setup boots one deployment and warms it: every host has a NodeState
// row, the fixture is published and every key has been answered once.
func setup(ctx context.Context, o options, p *plan, dir string) (e *env, err error) {
	e = &env{p: p}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.hosts, err = startHosts(p); err != nil {
		return nil, err
	}
	uri := e.hosts.uri(p)
	args := []string{"-period", p.wl.period}
	if p.wl.durable {
		data := filepath.Join(dir, "leader")
		if err = seedRegistry(e.hosts.statusURIs(p), data, ""); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", data, "-fsync", "always", "-repl-leader")
	} else {
		snap := filepath.Join(dir, "boot-snapshot.json")
		if err = seedRegistry(e.hosts.statusURIs(p), "", snap); err != nil {
			return nil, err
		}
		args = append(args, "-snapshot", snap)
	}
	if e.leader, err = startChild(ctx, o.regserver, filepath.Join(dir, "leader.log"), args...); err != nil {
		return nil, err
	}
	if p.wl.durable {
		e.follower, err = startChild(ctx, o.regserver, filepath.Join(dir, "follower.log"),
			"-period", p.wl.period, "-repl-follow", e.leader.base, "-repl-dir", filepath.Join(dir, "follower"))
		if err != nil {
			return nil, err
		}
	}
	e.orc = newOracle(p, uri)
	hc := &http.Client{Timeout: 30 * time.Second}
	token, err := session(ctx, hc, e.leader.base)
	if err != nil {
		return nil, err
	}
	if err = publish(ctx, hc, e.leader.base, token, p, uri); err != nil {
		return nil, err
	}
	e.client = newRegClient(p, e.leader.base, token, e.orc, lanes)
	if err = waitNodeState(ctx, e.client, e.leader.base, p); err != nil {
		return nil, err
	}
	if err = warm(e.client, p); err != nil {
		return nil, err
	}
	return e, nil
}

// waitNodeState waits until the collector holds a healthy row for every
// host, carrying exactly the seeded state.
func waitNodeState(ctx context.Context, c *regClient, base string, p *plan) error {
	want := map[string]hostSpec{}
	for _, h := range p.hosts {
		want[h.ip] = h
	}
	for {
		_, body, err := c.get(ctx, base+"/registry/nodestate")
		if err != nil {
			return fmt.Errorf("nodestate: %w", err)
		}
		var rows []store.NodeState
		if err := json.Unmarshal(body, &rows); err != nil {
			return fmt.Errorf("nodestate: %w", err)
		}
		ready := 0
		for _, r := range rows {
			h, ok := want[r.Host]
			if !ok || r.Failures != 0 {
				continue
			}
			if r.MemoryB != h.memMB<<20 || r.Load < h.load-1e-6 || r.Load > h.load+1e-6 {
				return fmt.Errorf("nodestate row %s = load %g mem %d, seeded %g/%d", r.Host, r.Load, r.MemoryB, h.load, h.memMB<<20)
			}
			ready++
		}
		if ready == len(p.hosts) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("nodestate: %d of %d hosts collected: %w", ready, len(p.hosts), ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// warm answers every key once (and a short skewed tail), untimed.
func warm(c *regClient, p *plan) error {
	samples, _ := runClosed(p.warm, lanes, time.Minute, c.send)
	for _, s := range samples {
		if !s.ok {
			return fmt.Errorf("warm-up failed: %v", c.failures)
		}
	}
	if len(samples) != len(p.warm) {
		return errors.New("warm-up did not finish")
	}
	return nil
}

// phaseCounters are the registry-side counters read around a phase.
type phaseCounters struct {
	metrics map[string]float64
	mallocs float64
}

func readCounters(ctx context.Context, e *env) (phaseCounters, error) {
	var pc phaseCounters
	var err error
	if pc.metrics, err = scrape(ctx, e.client, e.leader.base); err != nil {
		return pc, err
	}
	pc.mallocs, err = runtimeStat(ctx, e.client, e.leader.base, "Mallocs", false)
	return pc, err
}

// deployment is what one set-up deployment measured.
type deployment struct {
	setup        float64 // seconds of set-up: hosts started until every key was answered once
	open, closed []sample
	elapsed      time.Duration // closed loop
	stats        [numKinds]routeStats
	cpuPerReq    []float64 // registry CPU ns per request, per closed-loop window
	allocsPerReq float64
	heap         float64 // live heap after settling, bytes
	rss          int64   // VmHWM at the end, bytes
	before       phaseCounters
	after        phaseCounters
	wrong        int64
	failures     []string
	endErr       error
}

// measure sets up one deployment, runs the settle, open and closed
// streams on it and checks it, then tears it down.
func measure(ctx context.Context, o options, p *plan, dir string, limit time.Duration) (*deployment, error) {
	d := &deployment{}
	t0 := time.Now()
	e, err := setup(ctx, o, p, dir)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	d.setup = time.Since(t0).Seconds()

	runClosed(p.settle, lanes, time.Minute, e.client.send)
	// The live heap after a collection, before any timed op: the loaded
	// registry's retained state. Peak RSS, and the heap after the writes
	// of write-mix, move with where GC cycles and WAL checkpoints fall;
	// they are reported, not gated.
	for _, base := range e.bases() {
		h, err := runtimeStat(ctx, e.client, base, "HeapAlloc", true)
		if err != nil {
			return nil, err
		}
		d.heap += h
	}
	d.open = runOpen(p.open, lanes, e.client.send)

	if d.before, err = readCounters(ctx, e); err != nil {
		return nil, err
	}
	cpu := startCPUSampler(e.pids())
	d.closed, d.elapsed = runClosed(p.closed, lanes, limit, e.client.send)
	if d.cpuPerReq, err = cpu.perRequest(d.closed); err != nil {
		return nil, err
	}
	if d.after, err = readCounters(ctx, e); err != nil {
		return nil, err
	}
	d.allocsPerReq = (d.after.mallocs - d.before.mallocs) / float64(len(d.closed))
	if len(d.closed) < len(p.closed) {
		d.failures = append(d.failures, fmt.Sprintf("closed loop stopped at its %v limit after %d of %d ops", limit, len(d.closed), len(p.closed)))
	}
	d.stats, _ = summarize(d.closed, d.elapsed)

	d.endErr = finalChecks(ctx, e)
	for _, pid := range e.pids() {
		hwm, err := vmHWM(pid)
		if err != nil {
			return nil, err
		}
		d.rss += hwm
	}
	d.wrong = e.client.wrong.Load()
	d.failures = append(d.failures, e.client.failures...)
	return d, nil
}

// untraced runs the workload against regserver on `setups` fresh
// deployments in turn. Each runs the same streams: the fixed-rate open
// loop, reported for queueing and coordinated omission, then the closed
// loop whose figures are the gated end-to-end metrics. The p50s, CPU per
// request and throughput are taken per one-second window over the windows
// of all deployments; set-up and counts are the median of the
// deployments' figures. Either way one deployment that settles into a
// slow or fast scheduling pattern does not move the figure. The tails
// (p90, p99) are reported, not gated: on write-mix they follow the write
// path through the shared disk and moved too much from run to run.
func untraced(ctx context.Context, o options, wl workload, out string, openSec, closedSec float64, setups int) (*result, report, error) {
	var rep report
	p := newPlan(wl, o.seed, openSec/float64(setups), int(wl.closedRate*closedSec/float64(setups)))
	limit := closedLimit(closedSec / float64(setups))
	rep.addf("plan: %d services x %d hosts; per deployment %d open-loop ops at %.0f/s and %d closed-loop ops, writes %.0f%%; %d deployments",
		len(p.services), len(p.hosts), len(p.open), wl.rate, len(p.closed), 100*wl.writes, setups)

	var deps []*deployment
	for i := 0; i < setups; i++ {
		dir, err := workDir(out, fmt.Sprintf("setup%d", i))
		if err != nil {
			return nil, rep, err
		}
		d, err := measure(ctx, o, p, dir, limit)
		if err != nil {
			return nil, rep, err
		}
		deps = append(deps, d)
	}

	med := func(f func(d *deployment) float64) float64 {
		v := make([]float64, len(deps))
		for i, d := range deps {
			v[i] = f(d)
		}
		return medianFloat(v)
	}
	// Window statistics pool the windows of every deployment: the
	// deployments are one measurement spread over the run's time.
	pool := func(f func(d *deployment) []float64) []float64 {
		var v []float64
		for _, d := range deps {
			v = append(v, f(d)...)
		}
		return v
	}
	winP50 := func(k opKind) float64 {
		return medianFloat(pool(func(d *deployment) []float64 {
			v := make([]float64, len(d.stats[k].winP50))
			for i, p := range d.stats[k].winP50 {
				v[i] = ms(p)
			}
			return v
		}))
	}
	res := &result{Correct: true, Metrics: map[string]metric{
		"setup_s":        {med(func(d *deployment) float64 { return d.setup }), "s"},
		"rest_p50_ms":    {winP50(opREST), "ms"},
		"soap_p50_ms":    {winP50(opSOAP), "ms"},
		"throughput_rps": {interquartileMean(pool(func(d *deployment) []float64 { return windowRates(d.closed, d.elapsed) })), "req/s"},
		"cpu_us_per_req": {medianFloat(pool(func(d *deployment) []float64 { return d.cpuPerReq })) / 1e3, "us"},
		"allocs_per_req": {med(func(d *deployment) float64 { return d.allocsPerReq }), "allocs"},
		"heap_mb":        {med(func(d *deployment) float64 { return d.heap / (1 << 20) }), "MiB"},
	}}

	var open, closed []sample
	var rss int64
	sumBefore, sumAfter := map[string]float64{}, map[string]float64{}
	for i, d := range deps {
		open = append(open, d.open...)
		closed = append(closed, d.closed...)
		rss = max(rss, d.rss)
		for k, v := range d.before.metrics {
			sumBefore[k] += v
		}
		for k, v := range d.after.metrics {
			sumAfter[k] += v
		}
		if d.wrong != 0 || d.endErr != nil {
			res.Correct = false
		}
		for k := opREST; k < numKinds; k++ {
			if st := d.stats[k]; st.n > 0 {
				rep.addf("deployment %d closed %-6s n=%-7d failed=%-3d p50=%.3fms p90=%.3fms p99=%.3fms window p50s %v",
					i, kindNames[k], st.n, st.failed, ms(st.p50), ms(st.p90), ms(st.p99), st.winP50)
			}
		}
		rep.addf("deployment %d setup %.3fs throughput %.0f/s cpu %.1fµs/req allocs %.1f/req heap %.2fMiB",
			i, d.setup, interquartileMean(windowRates(d.closed, d.elapsed)), medianFloat(d.cpuPerReq)/1e3, d.allocsPerReq, d.heap/(1<<20))
		for _, f := range d.failures {
			rep.addf("deployment %d failure: %s", i, f)
		}
		if d.endErr != nil {
			rep.addf("deployment %d final check failed: %v", i, d.endErr)
		}
	}
	// Whole-phase quantiles over every deployment's samples (a zero
	// duration puts every sample in one window).
	openStats, openFailed := summarize(open, 0)
	closedStats, closedFailed := summarize(closed, 0)
	res.Attempted = len(open) + len(closed)
	res.Failed = openFailed + closedFailed

	late := sortedLate(open)
	rep.Extra = map[string]float64{
		"fail_ratio":          float64(res.Failed) / float64(res.Attempted),
		"rss_mb":              float64(rss) / (1 << 20),
		"loadgen.late_p50_ms": ms(quantile(late, 0.5)),
		"loadgen.late_p99_ms": ms(quantile(late, 0.99)),
	}
	for k := opREST; k < numKinds; k++ {
		for _, ph := range []struct {
			name string
			st   routeStats
		}{{"open", openStats[k]}, {"closed", closedStats[k]}} {
			if ph.st.n == 0 {
				continue
			}
			rep.addf("%-6s %-6s n=%-7d failed=%-3d p50=%.3fms p90=%.3fms p99=%.3fms (%d beyond p99), all deployments",
				ph.name, kindNames[k], ph.st.n, ph.st.failed, ms(ph.st.p50), ms(ph.st.p90), ms(ph.st.p99), ph.st.n/100)
			for q, v := range map[string]time.Duration{"p50": ph.st.p50, "p90": ph.st.p90, "p99": ph.st.p99} {
				rep.Extra[ph.name+"."+kindNames[k]+"_"+q+"_ms"] = ms(v)
			}
		}
	}
	if wl.writes > 0 {
		w := mergeKinds(closed, opSubmit, opUpdate)
		rep.Extra["write_p50_ms"] = ms(quantile(w, 0.5))
		rep.Extra["write_p90_ms"] = ms(quantile(w, 0.9))
		rep.Extra["write_p99_ms"] = ms(quantile(w, 0.99))
	}
	for name, v := range counterDeltas(sumBefore, sumAfter) {
		rep.Extra[name] = v
	}
	return res, rep, nil
}

// counterDeltas turns the untraced run's /registry/metrics deltas into
// the per-layer counts the traced report also carries.
func counterDeltas(a, b map[string]float64) map[string]float64 {
	d := func(name string) float64 { return b[name] - a[name] }
	out := map[string]float64{
		"admit.shed_total":        d("registry_admission_shed_total"),
		"admit.queued_total":      d("registry_admission_queued_total"),
		"nodestate.sweeps":        d("registry_collector_sweeps_total"),
		"nodestate.sweep_errors":  d("registry_collector_errors_total"),
		"respcache.invalidations": d("registry_respcache_invalidations_total"),
		"wal.appends":             d("registry_wal_appends_total"),
		"discovery.requests":      d("registry_discovery_total"),
		"constraint.cache_hits":   d("registry_constraint_cache_hits_total"),
		"constraint.cache_misses": d("registry_constraint_cache_misses_total"),
	}
	if hm := d("registry_respcache_hits_total") + d("registry_respcache_misses_total"); hm > 0 {
		out["respcache.hit_ratio"] = d("registry_respcache_hits_total") / hm
	}
	if w := d("registry_wal_appends_total"); w > 0 {
		out["wal.fsyncs_per_write"] = d("registry_wal_fsyncs_total") / w
		out["wal.bytes_per_write"] = d("registry_wal_bytes_total") / w
	}
	return out
}

func sortedLate(s []sample) []time.Duration {
	out := make([]time.Duration, len(s))
	for i := range s {
		out[i] = s[i].late
	}
	sortDurations(out)
	return out
}

func mergeKinds(s []sample, kinds ...opKind) []time.Duration {
	var out []time.Duration
	for _, x := range s {
		for _, k := range kinds {
			if x.kind == k {
				if x.ok {
					out = append(out, x.lat)
				} else {
					out = append(out, deadline(x.kind))
				}
			}
		}
	}
	sortDurations(out)
	return out
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// closedLimit caps a closed-loop phase planned for sec seconds. The phase
// runs a fixed number of ops, so the registry's state grows by the same
// writes on every run; the cap bounds the run on a slower machine.
func closedLimit(sec float64) time.Duration {
	return time.Duration(1.25 * sec * float64(time.Second))
}

// finalChecks verifies the write-mix durability contract at the end of a
// run: every acknowledged write is readable on the leader and, once the
// follower has caught up, discoverable there too.
func finalChecks(ctx context.Context, e *env) error {
	if !e.p.wl.durable {
		return nil
	}
	targets := []string{e.leader.base, e.follower.base}
	giveUp := time.Now().Add(20 * time.Second)
	for _, base := range targets {
		for {
			err := checkWrites(ctx, e, base)
			if err == nil {
				break
			}
			if time.Now().After(giveUp) {
				return fmt.Errorf("%s: %w", base, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

func checkWrites(ctx context.Context, e *env, base string) error {
	e.orc.mu.Lock()
	var created []int
	for i := range e.orc.created {
		created = append(created, i)
	}
	e.orc.mu.Unlock()
	sort.Ints(created)
	for _, i := range created {
		s := &e.p.fresh[i]
		code, body, err := e.client.get(ctx, base+"/registry/bindings?service="+s.name)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("acked submit %s not discoverable: status %d", s.name, code)
		}
		a, err := parseAnswer(opREST, body)
		if err != nil {
			return err
		}
		if a.Eligible+a.Unknown+a.Ineligible != len(s.bindings) {
			return fmt.Errorf("acked submit %s: %d bindings discovered, submitted %d", s.name, a.Eligible+a.Unknown+a.Ineligible, len(s.bindings))
		}
	}
	for key := range e.p.updates {
		v, known := e.orc.lastAcked(key)
		if !known || v == 0 {
			continue
		}
		s := &e.p.services[key]
		code, body, err := e.client.get(ctx, base+"/registry/object?id="+s.id)
		if err != nil {
			return err
		}
		var w struct{ Description string }
		if code != http.StatusOK || json.Unmarshal(body, &w) != nil {
			return fmt.Errorf("updated service %s unreadable: status %d", s.name, code)
		}
		if want := e.orc.constraintAt(key, v).description(); w.Description != want {
			return fmt.Errorf("updated service %s has %q, last acked write set %q", s.name, w.Description, want)
		}
	}
	return nil
}
