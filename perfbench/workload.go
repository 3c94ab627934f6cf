package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// workload is one traffic mix against one registry configuration.
type workload struct {
	name     string
	services int     // services in the fixture
	hosts    int     // simulated hosts, one binding per host per service
	zipf     bool    // Zipf-like key popularity with exponent zipfS (else uniform)
	period   string  // regserver -period
	rate     float64 // open-loop arrivals per second
	// closedRate sizes the closed-loop stream: about the closed-loop rate
	// of the reference box in its fast state, so the fixed op count fills
	// the phase's time there. In the slow state the phase is cut at its
	// time limit (closedLimit) with fewer ops done.
	closedRate float64
	writes     float64 // share of requests that are LCM writes
	durable    bool    // durable leader (-data-dir, -fsync always, -repl-leader) plus one follower
}

// README.md and BENCHMARK.json give each workload's rationale.
var workloads = []workload{
	{name: "hot-reads", services: 64, hosts: 8, zipf: true, period: "25s", rate: 2000, closedRate: 27000},
	{name: "cold-reads", services: 4096, hosts: 32, period: "1s", rate: 1000, closedRate: 8500},
	{name: "write-mix", services: 64, hosts: 8, zipf: true, period: "25s", rate: 800, closedRate: 3800, writes: 0.10, durable: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// hostSpec is the static state of one simulated host: a pure function of
// the seed, served unchanged for the whole run.
type hostSpec struct {
	ip    string  // loopback address, the NodeState key
	load  float64 // one-minute load average
	memMB int64   // available physical memory
}

// constraintSpec is one service's performance constraint:
// load < loadMax and memory > memKB.
type constraintSpec struct {
	loadMax float64
	memKB   int64
}

// description renders the constraint block the service publishes.
func (c constraintSpec) description() string {
	return fmt.Sprintf("<constraint><cpuLoad>load ls %.1f</cpuLoad><memory>memory gr %dKB</memory></constraint>",
		c.loadMax, c.memKB)
}

// admits is the oracle's own reading of the constraint: host values and
// thresholds are generated at least 0.05 load and 124 MiB apart, so the
// answer never depends on float rounding.
func (c constraintSpec) admits(h hostSpec) bool {
	return h.load < c.loadMax && h.memMB<<10 > c.memKB
}

type serviceSpec struct {
	id, name string
	bindings []bindingSpec // stored order
	cons     constraintSpec
}

type bindingSpec struct {
	id   string
	host int // index into fixture.hosts
}

// op is one generated request.
type op struct {
	at   time.Duration // intended send time from the phase start (open loop)
	kind opKind
	key  int // service index (reads, updates) or new-service index (submits)
	ver  int // update: the version this write installs
}

type opKind uint8

const (
	opREST opKind = iota
	opSOAP
	opSubmit
	opUpdate
	numKinds
)

var kindNames = [numKinds]string{"rest", "soap", "submit", "update"}

// plan is everything one seed generates for one workload: the fixture and
// the request streams. The registry only ever sees these inputs.
type plan struct {
	wl       workload
	seed     int64
	hosts    []hostSpec
	services []serviceSpec
	// updates[key] lists the constraint versions update writes install,
	// in schedule order; version 0 is the published one.
	updates map[int][]constraintSpec
	// fresh are the services submit writes create.
	fresh  []serviceSpec
	warm   []op // untimed warm-up stream (closed loop)
	settle []op // untimed closed-loop reads, before the open loop
	open   []op // fixed-rate open-loop stream
	closed []op // closed-loop stream; the phase ends early if it runs out
}

// settleSeconds of closed-loop reads let the registry's heap, caches and
// connections reach steady state before anything is timed: on cold-reads
// the per-second p50 falls for the first ~4 s of load after set-up.
const settleSeconds = 2

// newPlan generates the fixture and streams for one workload and seed.
// Each stream draws from its own generator, so lengthening one leaves
// the others unchanged.
func newPlan(wl workload, seed int64, openSeconds float64, closedOps int) *plan {
	p := &plan{wl: wl, seed: seed, updates: map[int][]constraintSpec{}}
	fx := rand.New(rand.NewSource(seed))
	// The seed picks identities and orders, never the amount of work: the
	// pairing of host loads with memories and each popularity rank's
	// constraint come from a fixed generator, so every seed answers the
	// same eligible count per key. Seeded pairings moved the mean eligible
	// count per answer by ±25% across seeds on hot-reads.
	shape := rand.New(rand.NewSource(shapeSeed))
	pairs := shape.Perm(wl.hosts)
	loadIdx, memIdx := shape.Perm(loadSteps), shape.Perm(memSteps)
	// Host loads and memories are evenly spread over their ranges; the
	// seed deals the (load, memory) pairs to loopback addresses.
	p.hosts = make([]hostSpec, wl.hosts)
	for k, r := range fx.Perm(wl.hosts) {
		p.hosts[k] = hostSpec{
			ip:    fmt.Sprintf("127.0.0.%d", k+2),
			load:  (float64(40*r/wl.hosts) + 0.5) / 10,
			memMB: 256 * int64(1+32*pairs[r]/wl.hosts),
		}
	}
	// Published constraints cycle through fixed permutations of the
	// threshold grids.
	p.services = make([]serviceSpec, wl.services)
	for i := range p.services {
		c := constraintAt(loadIdx[i%loadSteps], memIdx[i%memSteps], i)
		p.services[i] = p.newService(fx, fmt.Sprintf("svc-%04d", i), i, c)
	}

	// Writes: submits create new services, updates re-draw a hot
	// service's constraint. Both are fixed before any request runs.
	writeRng := rand.New(rand.NewSource(seed ^ 0x5752495445))
	nextOp := func(rng *rand.Rand, pick func() int, writes bool) op {
		if writes && rng.Float64() < wl.writes {
			if rng.Intn(2) == 0 {
				n := len(p.fresh)
				i := wl.services + n
				p.fresh = append(p.fresh, p.newService(writeRng, fmt.Sprintf("new-%05d", n), i, newConstraint(writeRng, i)))
				return op{kind: opSubmit, key: n}
			}
			key := pick()
			p.updates[key] = append(p.updates[key], newConstraint(writeRng, key))
			return op{kind: opUpdate, key: key, ver: len(p.updates[key])}
		}
		// Every workload reads 3:1 REST to SOAP.
		k := opREST
		if rng.Intn(4) == 0 {
			k = opSOAP
		}
		return op{kind: k, key: pick()}
	}

	warmRng := rand.New(rand.NewSource(seed ^ 0x5741524d))
	warmPick := keyPicker(wl, warmRng)
	nWarm := 2 * wl.services
	if nWarm > 4096 {
		nWarm = 4096
	}
	for i := 0; i < nWarm; i++ {
		o := nextOp(warmRng, warmPick, false)
		if i < wl.services {
			o.key = i // touch every key once
		}
		p.warm = append(p.warm, o)
	}

	// Poisson arrivals: exponential gaps at the workload's rate.
	poisson := func(rng *rand.Rand, seconds float64, writes bool) []op {
		pick := keyPicker(wl, rng)
		var ops []op
		for at := rng.ExpFloat64() / wl.rate; at < seconds; at += rng.ExpFloat64() / wl.rate {
			o := nextOp(rng, pick, writes)
			o.at = time.Duration(at * float64(time.Second))
			ops = append(ops, o)
		}
		return ops
	}
	settleRng := rand.New(rand.NewSource(seed ^ 0x534554544c45))
	settlePick := keyPicker(wl, settleRng)
	for i := 0; i < int(settleSeconds*wl.closedRate); i++ {
		p.settle = append(p.settle, nextOp(settleRng, settlePick, false))
	}
	p.open = poisson(rand.New(rand.NewSource(seed^0x4f50454e)), openSeconds, true)

	closedRng := rand.New(rand.NewSource(seed ^ 0x434c4f53))
	closedPick := keyPicker(wl, closedRng)
	for i := 0; i < closedOps; i++ {
		p.closed = append(p.closed, nextOp(closedRng, closedPick, true))
	}
	return p
}

// newService draws one service with one binding per host, stored order
// rotated so every host leads some services.
func (p *plan) newService(rng *rand.Rand, name string, i int, c constraintSpec) serviceSpec {
	s := serviceSpec{id: uuidFrom(rng), name: name, cons: c}
	for j := 0; j < len(p.hosts); j++ {
		s.bindings = append(s.bindings, bindingSpec{id: uuidFrom(rng), host: (i + j) % len(p.hosts)})
	}
	return s
}

// shapeSeed seeds the fixture's shape, which is the same on every run.
const shapeSeed = 0x7368617065

// The threshold grids: load thresholds 1.0..3.5 and memory thresholds
// 128 MiB..4.9 GiB.
const loadSteps, memSteps = 26, 20

// constraintAt builds service i's constraint from grid steps. Thresholds
// sit between host values: loads on x.x5 against thresholds on x.x0,
// memories on multiples of 256 MiB against thresholds 128 MiB (+ i KiB,
// keeping every description distinct) above one.
func constraintAt(loadStep, memStep, i int) constraintSpec {
	return constraintSpec{
		loadMax: float64(10+loadStep) / 10,
		memKB:   (256*int64(memStep)+128)<<10 + int64(i%4096),
	}
}

func newConstraint(rng *rand.Rand, i int) constraintSpec {
	return constraintAt(rng.Intn(loadSteps), rng.Intn(memSteps), i)
}

// zipfS is the exponent of Zipf-like key popularity: the key of rank i
// is drawn with probability proportional to 1/i^zipfS. Breslau et al.,
// "Web Caching and Zipf-like Distributions: Evidence and Implications"
// (INFOCOM 1999), fit exponents of 0.64 to 0.83 to the request streams of
// six web-proxy traces; 0.8 sits in that range.
const zipfS = 0.8

// keyPicker returns the workload's key-popularity sampler. math/rand's
// Zipf needs an exponent above 1, so Zipf keys are drawn by inverting
// their cumulative distribution.
func keyPicker(wl workload, rng *rand.Rand) func() int {
	if !wl.zipf {
		return func() int { return rng.Intn(wl.services) }
	}
	cdf := make([]float64, wl.services)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -zipfS)
		cdf[i] = sum
	}
	return func() int { return sort.SearchFloat64s(cdf, rng.Float64()*sum) }
}

func uuidFrom(rng *rand.Rand) string {
	var b [16]byte
	rng.Read(b[:])
	return fmt.Sprintf("urn:uuid:%x-%x-%x-%x-%x", b[0:4], b[4:6], b[6:8], b[8:10], b[10:16])
}

// expected is the oracle's answer for a service under a constraint: the
// eligible URIs in stored order (the filter policy's output).
func (p *plan) expected(s *serviceSpec, c constraintSpec, uri func(s *serviceSpec, b bindingSpec) string) []string {
	var out []string
	for _, b := range s.bindings {
		if c.admits(p.hosts[b.host]) {
			out = append(out, uri(s, b))
		}
	}
	return out
}

// quantile returns the q-quantile (0..1) of sorted durations by the
// nearest-rank rule.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
