package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/breaker"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/lcm"
	"repro/internal/nodestatus"
	"repro/internal/registry"
	"repro/internal/repl"
	"repro/internal/respcache"
	"repro/internal/rim"
	"repro/internal/router"
	"repro/internal/soap"
	"repro/internal/store"
	"repro/internal/wal"
)

// opHeader carries a request's stream index so the traced edge can parent
// its span; the registry ignores it.
const opHeader = "X-Perfbench-Op"

// span is one timed call. Layer spans are replayed after the load phase
// and parented to the handler span of the request whose inputs they use.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // span index, -1 for none
	Req    int    `json:"req"`    // request stream index, -1 for none
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// handler maps a request id to its handler span.
	handler map[int]int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), handler: map[int]int{}} }

func (t *tracer) record(name string, start, end time.Time, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if p, ok := t.handler[req]; ok && req >= 0 {
		parent = p
	}
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(),
		End: end.Sub(t.epoch).Nanoseconds(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// reserve grows the span buffer so the next n records allocate nothing,
// keeping a batch's allocation count the layer's own.
func (t *tracer) reserve(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cap(t.spans)-len(t.spans) < n {
		t.spans = append(make([]span, 0, 2*cap(t.spans)+n), t.spans...)
	}
}

// selfTimes returns every span's self time (its duration minus the part
// covered by its temporally nested children), grouped by name.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			if s.Start >= p.Start && s.End <= p.End {
				covered[s.Parent] += s.End - s.Start
			}
		}
	}
	out := map[string][]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered[i]))
	}
	for _, d := range out {
		sortDurations(d)
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inproc is the traced deployment: the same configuration regserver's
// flags give, built with registry.New and served over loopback.
type inproc struct {
	reg, follower *registry.Registry
	fol           *repl.Follower
	srv           *http.Server
	base          string
	hosts         *hostFleet
	statusURIs    []string
	cancel        context.CancelFunc
	wg            sync.WaitGroup

	replMu      sync.Mutex
	pollRecords []int // records applied per follower poll
	lagMax      int64 // largest follower lag seen after a poll
}

// registryConfig mirrors regserver's defaults for the flags each
// workload sets.
func registryConfig(wl workload, dataDir string) (registry.Config, error) {
	period, err := time.ParseDuration(wl.period)
	if err != nil {
		return registry.Config{}, err
	}
	cfg := registry.Config{
		Policy:           core.PolicyFilter,
		CollectionPeriod: period,
		InvokeTimeout:    10 * time.Second,
		InvokeRetries:    1,
		RetryBackoff:     2 * time.Second,
		Breaker:          &breaker.Config{Threshold: 3, BaseBackoff: 50 * time.Second, MaxBackoff: 10 * time.Minute},
		Admission:        &admit.Config{},
		Pprof:            true,
	}
	if dataDir != "" {
		cfg.DataDir, cfg.Fsync, cfg.ReplLeader = dataDir, wal.FsyncAlways, true
	}
	return cfg, nil
}

func (ip *inproc) close() {
	ip.cancel()
	if ip.srv != nil {
		ip.srv.Close()
	}
	ip.wg.Wait()
	if ip.fol != nil {
		ip.fol.Close()
	}
	if ip.reg != nil && ip.reg.Durable != nil {
		ip.reg.Durable.Close()
	}
	if ip.hosts != nil {
		ip.hosts.close()
	}
}

// startInproc builds and serves the traced registry. The collector runs
// from a loop of the benchmark's own so each sweep is a span.
func startInproc(p *plan, ops []op, tr *tracer, dir string) (ip *inproc, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	ip = &inproc{cancel: cancel}
	defer func() {
		if err != nil {
			ip.close()
		}
	}()
	if ip.hosts, err = startHosts(p); err != nil {
		return nil, err
	}
	ip.statusURIs = ip.hosts.statusURIs(p)
	data := ""
	if p.wl.durable {
		data = filepath.Join(dir, "leader")
	}
	cfg, err := registryConfig(p.wl, data)
	if err != nil {
		return nil, err
	}
	if ip.reg, err = registry.New(cfg); err != nil {
		return nil, err
	}
	if err = ip.reg.LCM.SubmitObjects(ip.reg.AdminContext(), nodeStatusService(ip.statusURIs)); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ip.base = "http://" + ln.Addr().String()
	h := ip.reg.Handler()
	ip.srv = registry.HardenedServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		name := "registry.rest_handler"
		switch ops[id].kind {
		case opSOAP:
			name = "registry.soap_handler"
		case opSubmit, opUpdate:
			name = "registry.write_handler"
		}
		i := tr.record(name, t0, t1, id)
		tr.mu.Lock()
		tr.handler[id] = i
		tr.mu.Unlock()
	}))
	ip.wg.Add(1)
	go func() {
		defer ip.wg.Done()
		ip.srv.Serve(ln)
	}()

	ip.wg.Add(1)
	go func() {
		defer ip.wg.Done()
		for {
			t0 := time.Now()
			ip.reg.Collector.CollectOnceCtx(ctx)
			tr.record("nodestate.sweep", t0, time.Now(), -1)
			select {
			case <-ctx.Done():
				return
			case <-time.After(cfg.CollectionPeriod):
			}
		}
	}()

	if p.wl.durable {
		fcfg, err := registryConfig(p.wl, "")
		if err != nil {
			return nil, err
		}
		fcfg.ReplFollowURL = ip.base
		if ip.follower, err = registry.New(fcfg); err != nil {
			return nil, err
		}
		ip.fol, err = repl.OpenFollower(filepath.Join(dir, "follower"), ip.follower.Store, repl.FollowerOptions{LeaderURL: ip.base})
		if err != nil {
			return nil, err
		}
		ip.follower.AttachFollower(ip.fol)
		ip.wg.Add(1)
		go func() {
			defer ip.wg.Done()
			for ctx.Err() == nil {
				if ip.fol.Cold() {
					if ip.fol.Bootstrap(ctx) != nil {
						time.Sleep(50 * time.Millisecond)
					}
					continue
				}
				t0 := time.Now()
				n, err := ip.fol.Poll(ctx)
				if err != nil {
					time.Sleep(50 * time.Millisecond)
					continue
				}
				if n > 0 {
					tr.record("repl.poll", t0, time.Now(), -1)
					lag := ip.fol.Stats().LagRecords
					ip.replMu.Lock()
					ip.pollRecords = append(ip.pollRecords, n)
					if lag > ip.lagMax {
						ip.lagMax = lag
					}
					ip.replMu.Unlock()
				}
			}
		}()
	}
	return ip, nil
}

// traced runs the workload twice: untraced against regserver for the
// end-to-end medians and layer counters, then traced in process for the
// per-layer times, and reconciles the two. Both replay the same
// closed-loop stream.
func traced(ctx context.Context, o options, wl workload, out string) (*result, report, error) {
	openSec, closedSec := 0.1*float64(o.seconds), 0.3*float64(o.seconds)
	res, rep, err := untraced(ctx, o, wl, out, openSec, closedSec, 1)
	if err != nil {
		return nil, rep, err
	}
	e2e := map[string]float64{"rest": res.Metrics["rest_p50_ms"].Value * 1000, "soap": res.Metrics["soap_p50_ms"].Value * 1000}
	counts := rep.Extra

	p := newPlan(wl, o.seed, openSec, int(wl.closedRate*closedSec))
	tr := newTracer()
	dir, err := workDir(out, "traced")
	if err != nil {
		return nil, rep, err
	}
	ip, err := startInproc(p, p.closed, tr, dir)
	if err != nil {
		return nil, rep, fmt.Errorf("traced setup: %w", err)
	}
	defer ip.close()
	orc := newOracle(p, ip.hosts.uri(p))
	hc := &http.Client{Timeout: 30 * time.Second}
	token, err := session(ctx, hc, ip.base)
	if err != nil {
		return nil, rep, err
	}
	if err := publish(ctx, hc, ip.base, token, p, orc.uri); err != nil {
		return nil, rep, err
	}
	c := newRegClient(p, ip.base, token, orc, lanes)
	defer c.close()
	if err := waitNodeState(ctx, c, ip.base, p); err != nil {
		return nil, rep, err
	}
	if err := warm(c, p); err != nil {
		return nil, rep, err
	}
	// The open stream runs untraced first, as in the untraced run, so the
	// closed stream's writes find the same registry state.
	runClosed(p.settle, lanes, time.Minute, c.send)
	runOpen(p.open, lanes, c.send)
	c.header = opHeader
	closed, elapsed := runClosed(p.closed, lanes, closedLimit(closedSec), c.send)
	stats, failed := summarize(closed, elapsed)
	if c.wrong.Load() != 0 {
		res.Correct = false
		for _, f := range c.failures {
			rep.addf("traced failure: %s", f)
		}
	}
	res.Attempted += len(closed)
	res.Failed += failed

	pr := &prober{p: p, ops: p.closed[:len(closed)], ip: ip, tr: tr, token: token, uri: orc.uri, orc: orc, dir: dir, allocs: map[string]float64{}}
	if err := pr.run(ctx); err != nil {
		return nil, rep, fmt.Errorf("layer probes: %w", err)
	}
	if err := tr.write(filepath.Join(out, fmt.Sprintf("spans-seed%d.jsonl", o.seed))); err != nil {
		return nil, rep, err
	}

	self := tr.selfTimes()
	p50 := func(name string) time.Duration { return quantile(self[name], 0.5) }
	us := func(name string) float64 { return float64(p50(name).Nanoseconds()) / 1e3 }
	ns := func(name string) float64 { return float64(p50(name).Nanoseconds()) }
	m := map[string]metric{
		"registry.rest_handler_us":       {us("registry.rest_handler"), "us"},
		"registry.soap_handler_us":       {us("registry.soap_handler"), "us"},
		"transport.rest_us":              {e2e["rest"] - us("registry.rest_handler"), "us"},
		"transport.soap_us":              {e2e["soap"] - us("registry.soap_handler"), "us"},
		"router.dispatch_ns":             {ns("router.dispatch"), "ns"},
		"admit.bracket_ns":               {ns("admit.bracket"), "ns"},
		"flight.append_ns":               {ns("flight.append"), "ns"},
		"respcache.lookup_ns":            {ns("respcache.lookup"), "ns"},
		"respcache.hit_ratio":            {counts["respcache.hit_ratio"], "ratio"},
		"admit.shed_total":               {counts["admit.shed_total"], "count"},
		"admit.queued_total":             {counts["admit.queued_total"], "count"},
		"soap.decode_ns":                 {ns("soap.decode"), "ns"},
		"soap.encode_ns":                 {ns("soap.encode"), "ns"},
		"store.view_ns":                  {ns("store.view"), "ns"},
		"constraint.from_description_ns": {ns("constraint.from_description"), "ns"},
		"constraint.cache_hit_ratio":     {pr.constraintHits / pr.constraintCalls, "ratio"},
		"core.arrange_ns":                {ns("core.arrange"), "ns"},
		"core.eligible_per_answer":       {pr.eligible / pr.arranged, "count"},
		"qm.bindings_ns":                 {ns("qm.bindings"), "ns"},
		"nodestate.sweep_ms":             {float64(p50("nodestate.sweep").Nanoseconds()) / 1e6, "ms"},
		"nodestate.sweep_errors":         {counts["nodestate.sweep_errors"], "count"},
		"nodestatus.invoke_us":           {us("nodestatus.invoke"), "us"},
		"auth.session_ns":                {ns("auth.session"), "ns"},
		"lcm.submit_us":                  {us("lcm.submit"), "us"},
		"lcm.update_us":                  {us("lcm.update"), "us"},
		"wal.commit_us":                  {us("wal.commit"), "us"},
		"wal.append_us":                  {us("wal.append"), "us"},
		"wal.sync_us":                    {us("wal.sync"), "us"},
		"wal.encode_us":                  {max0(us("wal.commit") - us("wal.append") - us("wal.sync")), "us"},
		"wal.apply_us":                   {us("wal.apply"), "us"},
		"loadgen.late_p99_ms":            {counts["loadgen.late_p99_ms"], "ms"},
	}
	for layer, a := range pr.allocs {
		m[layer+".allocs_per_call"] = metric{a, "allocs"}
	}

	// Reconciliation: per route, the layer self-times on the path the
	// request takes (misses weighted by the measured miss ratio) against
	// the in-process handler, and the rest of the untraced end-to-end
	// median reported as transport.
	miss := 1 - counts["respcache.hit_ratio"]
	hitREST := us("router.dispatch") + us("admit.bracket") + us("respcache.lookup") + us("flight.append")
	// A miss renders both encodings of the answer: the SOAP one through
	// soap.Marshal (probed) and the JSON one in unexported code, which
	// falls into glue.
	missPath := us("qm.bindings") + us("soap.encode")
	routes := []struct {
		name     string
		hit      float64
		handler  string
		kind     opKind
		untraced float64
	}{
		{"rest", hitREST, "registry.rest_handler", opREST, e2e["rest"]},
		{"soap", hitREST + us("soap.decode"), "registry.soap_handler", opSOAP, e2e["soap"]},
	}
	extra := map[string]float64{}
	for _, r := range routes {
		layers := r.hit + miss*missPath
		handler := us(r.handler)
		tracedE2E := float64(stats[r.kind].p50.Nanoseconds()) / 1e3
		rep.addf("reconcile %s: layers %.1fus (hit path %.1f + %.2f x miss path %.1f) + registry glue %.1fus = handler %.1fus; + transport %.1fus = untraced e2e p50 %.1fus; traced in-process e2e p50 %.1fus (%+.1fus)",
			r.name, layers, r.hit, miss, missPath, handler-layers, handler, r.untraced-handler, r.untraced, tracedE2E, tracedE2E-r.untraced)
		extra["reconcile."+r.name+".layers_us"] = layers
		extra["reconcile."+r.name+".glue_us"] = handler - layers
		// The traced registry shares the generator's process, so this
		// delta is tracing cost plus the cross-process hop it saves.
		extra["trace.e2e_delta_"+r.name+"_us"] = tracedE2E - r.untraced
	}
	if wl.writes > 0 {
		extra["registry.write_handler_us"] = us("registry.write_handler")
		extra["repl.poll_us"] = us("repl.poll")
		extra["repl.records_per_poll"], extra["repl.lag_records_max"] = ip.replStats()
		for _, k := range []string{"write_p50_ms", "write_p90_ms", "write_p99_ms", "wal.fsyncs_per_write", "wal.bytes_per_write"} {
			extra[k] = counts[k]
		}
	}
	rep.Extra = extra
	res.Metrics = m
	return res, rep, nil
}

func max0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// prober replays each request's inputs through the layers' public
// functions one layer at a time, timing every call and counting the
// layer's allocations over the whole batch.
type prober struct {
	p     *plan
	ops   []op // the traced stream's requests, in stream order
	ip    *inproc
	tr    *tracer
	token string
	uri   func(*serviceSpec, bindingSpec) string
	orc   *oracle
	dir   string

	allocs                          map[string]float64
	constraintHits, constraintCalls float64
	eligible, arranged              float64
}

// maxProbes bounds how many stream requests the layer replay covers.
const maxProbes = 2000

// batch runs fn for each of n calls, recording a span per call and the
// layer's mean allocations per call.
func (pr *prober) batch(layer string, n int, fn func(i int) int) {
	pr.tr.reserve(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		req := fn(i)
		pr.tr.record(layer, t0, time.Now(), req)
	}
	runtime.ReadMemStats(&after)
	if n > 0 {
		pr.allocs[layer] = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
}

func (pr *prober) run(ctx context.Context) error {
	reg := pr.ip.reg
	var reads []int // stream indices of reads
	for i, o := range pr.ops {
		if (o.kind == opREST || o.kind == opSOAP) && len(reads) < maxProbes {
			reads = append(reads, i)
		}
	}
	op := func(i int) op { return pr.ops[reads[i]] }
	name := func(i int) string { return pr.p.services[op(i).key].name }
	space := respcache.SpaceName

	// Router: a frozen router with the registry's route table.
	rt := router.New(router.Config{})
	nop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	for _, path := range []string{"/soap/registry", "/soap/auth", "/registry/object", "/registry/find",
		"/registry/bindings", "/registry/query", "/registry/content", "/registry/nodestate", "/registry/health",
		"/registry/metrics", "/registry/traces", "/registry/flight", "/registry/debug/bundle", "/ui",
		repl.PathWAL, repl.PathCheckpoint} {
		rt.Handle(path, nop)
	}
	rt.Freeze()
	reqs := make([]*http.Request, len(reads))
	for i := range reads {
		if op(i).kind == opREST {
			reqs[i], _ = http.NewRequest(http.MethodGet, pr.ip.base+"/registry/bindings?service="+name(i), nil)
		} else {
			reqs[i], _ = http.NewRequest(http.MethodPost, pr.ip.base+"/soap/registry", nil)
		}
	}
	var sink discard
	pr.batch("router.dispatch", len(reads), func(i int) int {
		rt.ServeHTTP(&sink, reqs[i])
		return reads[i]
	})

	adm := reg.Admission
	pr.batch("admit.bracket", len(reads), func(i int) int {
		class := admit.ClassDiscovery
		if op(i).kind == opSOAP {
			class = admit.ClassLCM
		}
		now := time.Now()
		if out, _ := adm.TryAdmit(class, now); out == admit.Admitted {
			adm.Release(class, now, time.Now())
		}
		return reads[i]
	})

	var soaps []int
	for i := range reads {
		if op(i).kind == opSOAP {
			soaps = append(soaps, i)
		}
	}
	envelopes := bindingsEnvelopes(pr.p)
	pr.batch("soap.decode", len(soaps), func(j int) int {
		var env soapRequest
		soap.Unmarshal(envelopes[op(soaps[j]).key], &env)
		return reads[soaps[j]]
	})

	pr.batch("respcache.lookup", len(reads), func(i int) int {
		now := time.Now()
		gen, _ := reg.Balancer.SnapshotMeta(now)
		reg.RespCache.Lookup(space, name(i), gen, uint32(adm.Tier()), now)
		return reads[i]
	})

	ring := flight.NewRing(0)
	pr.batch("flight.append", len(reads), func(i int) int {
		rec := flight.Record{Unix: time.Now().UnixNano(), Route: flight.RouteBindings, Status: 200, CacheHit: true,
			Host: pr.p.hosts[pr.p.services[op(i).key].bindings[0].host].ip}
		ring.Append(&rec)
		return reads[i]
	})

	// Miss path.
	answers := make([]registry.GetBindingsResponse, len(reads))
	pr.batch("qm.bindings", len(reads), func(i int) int {
		uris, dec, err := reg.QM.GetServiceBindingsByNameCtx(ctx, name(i))
		if err == nil {
			answers[i] = registry.GetBindingsResponse{URIs: uris, Filtered: dec.Filtered, Eligible: dec.Eligible(),
				Unknown: dec.Unknown(), Ineligible: dec.Ineligible(), WindowOK: dec.TimeWindowOK}
		}
		return reads[i]
	})
	views := make([]store.DiscoveryView, len(reads))
	pr.batch("store.view", len(reads), func(i int) int {
		views[i], _ = reg.Store.ServiceViewByName(name(i))
		return reads[i]
	})
	pr.batch("constraint.from_description", len(reads), func(i int) int {
		_, cached, _ := reg.ConstraintCache.FromDescription(views[i].ID, views[i].Description)
		pr.constraintCalls++
		if cached {
			pr.constraintHits++
		}
		return reads[i]
	})
	pr.batch("core.arrange", len(reads), func(i int) int {
		_, dec := reg.Balancer.ArrangeView(views[i], time.Now())
		pr.arranged++
		pr.eligible += float64(dec.Eligible())
		return reads[i]
	})
	pr.batch("soap.encode", len(reads), func(i int) int {
		soap.Marshal(&answers[i])
		return reads[i]
	})

	// Collector: one NodeStatus invocation per host, a few rounds.
	inv := nodestatus.HTTPInvoker{}
	uris := pr.ip.statusURIs
	pr.batch("nodestatus.invoke", 4*len(uris), func(i int) int {
		inv.InvokeContext(ctx, uris[i%len(uris)])
		return -1
	})

	return pr.writes(ctx)
}

// writes probes the write path: session resolution, LCM submits and
// updates on the traced registry, and the WAL on a scratch log with the
// same fsync policy as the durable workload.
func (pr *prober) writes(ctx context.Context) error {
	reg := pr.ip.reg
	const n = 64
	pr.batch("auth.session", maxProbes, func(int) int {
		reg.SessionContext(pr.token)
		return -1
	})
	sess, err := reg.SessionContext(pr.token)
	if err != nil {
		return fmt.Errorf("session: %w", err)
	}
	rng := rand.New(rand.NewSource(pr.p.seed ^ 0x50524f4245))
	probes := make([]rim.Object, n)
	for i := range probes {
		s := pr.p.newService(rng, fmt.Sprintf("probe-%03d", i), i, newConstraint(rng, i))
		w := wireService(&s, s.cons, pr.uri)
		if probes[i], err = w.FromWire(); err != nil {
			return err
		}
	}
	var werr error
	pr.batch("lcm.submit", n, func(i int) int {
		if err := reg.LCM.SubmitObjectsCtx(ctx, sess, probes[i]); err != nil && werr == nil {
			werr = err
		}
		return -1
	})
	updates := make([]rim.Object, n)
	for i := range updates {
		key := i % len(pr.p.services)
		v, _ := pr.orc.lastAcked(key)
		w := wireService(&pr.p.services[key], pr.orc.constraintAt(key, v), pr.uri)
		if updates[i], err = w.FromWire(); err != nil {
			return err
		}
	}
	pr.batch("lcm.update", n, func(i int) int {
		if err := reg.LCM.UpdateObjectsCtx(ctx, sess, updates[i]); err != nil && werr == nil {
			werr = err
		}
		return -1
	})
	if werr != nil {
		return werr
	}

	dur, err := wal.OpenDurable(filepath.Join(pr.dir, "walprobe"), store.New(), wal.DurableOptions{
		Log: wal.Options{Fsync: wal.FsyncAlways}, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		return err
	}
	pr.batch("wal.commit", n, func(i int) int {
		if dur.BeginWrite() == nil {
			if err := dur.Commit(lcm.Mutation{Op: "Created", Puts: []rim.Object{probes[i]}}); err != nil && werr == nil {
				werr = err
			}
			dur.EndWrite()
		}
		return -1
	})
	var payloads [][]byte
	if err := dur.WAL().Replay(wal.Position{}, func(_ wal.Position, b []byte) error {
		payloads = append(payloads, append([]byte(nil), b...))
		return nil
	}); err != nil {
		return err
	}
	if err := dur.Close(); err != nil {
		return err
	}
	if werr != nil || len(payloads) == 0 {
		return fmt.Errorf("wal probe: %v, %d records", werr, len(payloads))
	}
	log, err := wal.Open(filepath.Join(pr.dir, "walprobe-raw"), wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		return err
	}
	pr.batch("wal.append", len(payloads), func(i int) int {
		log.Append(payloads[i])
		return -1
	})
	for i := range payloads {
		log.Append(payloads[i])
		t0 := time.Now()
		log.Sync()
		pr.tr.record("wal.sync", t0, time.Now(), -1)
	}
	if err := log.Close(); err != nil {
		return err
	}
	pr.batch("wal.apply", len(payloads), func(i int) int {
		wal.ApplyRecord(store.New(), payloads[i])
		return -1
	})
	return nil
}

// replStats returns the mean records applied per follower poll and the
// largest lag seen.
func (ip *inproc) replStats() (perPoll, lagMax float64) {
	ip.replMu.Lock()
	defer ip.replMu.Unlock()
	recs := 0
	for _, n := range ip.pollRecords {
		recs += n
	}
	if len(ip.pollRecords) > 0 {
		perPoll = float64(recs) / float64(len(ip.pollRecords))
	}
	return perPoll, float64(ip.lagMax)
}

// discard is a ResponseWriter that keeps nothing.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header {
	if d.h == nil {
		d.h = http.Header{}
	}
	return d.h
}
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(int)             {}

// soapRequest mirrors the registry's unexported /soap/registry union
// body field for field, so the soap.decode probe unmarshals into the
// same shape the SOAP handler does.
type soapRequest struct {
	XMLName     struct{}                            `xml:"RegistryRequest"`
	Submit      *registry.SubmitObjectsRequest      `xml:"SubmitObjectsRequest"`
	Update      *registry.UpdateObjectsRequest      `xml:"UpdateObjectsRequest"`
	Approve     *registry.ApproveObjectsRequest     `xml:"ApproveObjectsRequest"`
	Deprecate   *registry.DeprecateObjectsRequest   `xml:"DeprecateObjectsRequest"`
	Undeprecate *registry.UndeprecateObjectsRequest `xml:"UndeprecateObjectsRequest"`
	Remove      *registry.RemoveObjectsRequest      `xml:"RemoveObjectsRequest"`
	Relocate    *registry.RelocateObjectsRequest    `xml:"RelocateObjectsRequest"`
	GetObject   *registry.GetObjectRequest          `xml:"GetObjectRequest"`
	Find        *registry.FindObjectsRequest        `xml:"FindObjectsRequest"`
	Query       *registry.AdhocQueryWireRequest     `xml:"AdhocQueryRequest"`
	Bindings    *registry.GetBindingsRequest        `xml:"GetBindingsRequest"`
	Subscribe   *registry.SubscribeRequest          `xml:"SubscribeRequest"`
	Unsubscribe *registry.UnsubscribeRequest        `xml:"UnsubscribeRequest"`
}
