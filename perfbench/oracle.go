package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/registry"
	"repro/internal/soap"
)

// answer is one discovery reply, REST or SOAP, reduced to what the
// oracle checks.
type answer struct {
	URIs       []string `json:"uris"`
	Eligible   int      `json:"eligible"`
	Unknown    int      `json:"unknown"`
	Ineligible int      `json:"ineligible"`
}

func parseAnswer(kind opKind, body []byte) (answer, error) {
	var a answer
	if kind == opREST {
		err := json.Unmarshal(body, &a)
		return a, err
	}
	var r registry.GetBindingsResponse
	if err := soap.Unmarshal(body, &r); err != nil {
		return a, err
	}
	return answer{URIs: r.URIs, Eligible: r.Eligible, Unknown: r.Unknown, Ineligible: r.Ineligible}, nil
}

// checkAnswer is the discovery oracle: the answer may hold only the
// service's registered bindings, each on a host that satisfies the
// constraint under the seeded host state, and must be exactly the
// eligible bindings in stored order with exact decision counts.
func checkAnswer(p *plan, s *serviceSpec, c constraintSpec, uri func(*serviceSpec, bindingSpec) string, a answer) error {
	registered := make(map[string]int, len(s.bindings))
	for _, b := range s.bindings {
		registered[uri(s, b)] = b.host
	}
	for _, u := range a.URIs {
		h, ok := registered[u]
		if !ok {
			return fmt.Errorf("%s: foreign binding %s", s.name, u)
		}
		if !c.admits(p.hosts[h]) {
			return fmt.Errorf("%s: ineligible binding %s", s.name, u)
		}
	}
	want := p.expected(s, c, uri)
	if len(a.URIs) != len(want) {
		return fmt.Errorf("%s: %d bindings, want the %d eligible", s.name, len(a.URIs), len(want))
	}
	for i := range want {
		if a.URIs[i] != want[i] {
			return fmt.Errorf("%s: binding %d is %s, want %s", s.name, i, a.URIs[i], want[i])
		}
	}
	if a.Eligible != len(want) || a.Unknown != 0 || a.Ineligible != len(s.bindings)-len(want) {
		return fmt.Errorf("%s: counts eligible=%d unknown=%d ineligible=%d, want %d/0/%d",
			s.name, a.Eligible, a.Unknown, a.Ineligible, len(want), len(s.bindings)-len(want))
	}
	return nil
}

// oracle tracks the version history of every updated service so a read
// is checked against the versions it may legally see: not older than the
// newest version acknowledged before the read was sent, not newer than
// the newest version sent before the read completed.
type oracle struct {
	p   *plan
	uri func(*serviceSpec, bindingSpec) string

	mu      sync.Mutex
	turn    *sync.Cond
	keys    map[int]*keyHistory
	created map[int]bool // acked submits
}

type keyHistory struct {
	done      int         // updates finished, acked or failed
	sent, ack []time.Time // by version-1
	ambiguous bool        // an update failed: its effect is unknown
}

func newOracle(p *plan, uri func(*serviceSpec, bindingSpec) string) *oracle {
	o := &oracle{p: p, uri: uri, keys: map[int]*keyHistory{}, created: map[int]bool{}}
	o.turn = sync.NewCond(&o.mu)
	for k, vs := range p.updates {
		o.keys[k] = &keyHistory{sent: make([]time.Time, len(vs)), ack: make([]time.Time, len(vs))}
	}
	return o
}

// constraintAt returns version v of service key's constraint.
func (o *oracle) constraintAt(key, v int) constraintSpec {
	if v == 0 {
		return o.p.services[key].cons
	}
	return o.p.updates[key][v-1]
}

// beginUpdate blocks until every earlier update of the key has finished,
// so versions apply in order, and stamps the send time.
func (o *oracle) beginUpdate(key, v int) {
	o.mu.Lock()
	h := o.keys[key]
	for h.done < v-1 {
		o.turn.Wait()
	}
	h.sent[v-1] = time.Now()
	o.mu.Unlock()
}

func (o *oracle) endUpdate(key, v int, ok bool) {
	o.mu.Lock()
	h := o.keys[key]
	if ok {
		h.ack[v-1] = time.Now()
	} else {
		h.ambiguous = true
	}
	h.done = v
	o.mu.Unlock()
	o.turn.Broadcast()
}

func (o *oracle) noteCreated(i int) {
	o.mu.Lock()
	o.created[i] = true
	o.mu.Unlock()
}

// window returns the range of versions a read of key sent at s and
// completed at d may observe.
func (o *oracle) window(key int, s, d time.Time) (lo, hi int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h := o.keys[key]
	if h == nil {
		return 0, 0
	}
	for v := 1; v <= len(h.sent); v++ {
		if !h.ack[v-1].IsZero() && !h.ack[v-1].After(s) && !h.ambiguous {
			lo = v
		}
		if !h.sent[v-1].IsZero() && !h.sent[v-1].After(d) {
			hi = v
		}
	}
	return lo, hi
}

// lastAcked returns the newest acknowledged version of key and whether
// the key's final state is known.
func (o *oracle) lastAcked(key int) (int, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h := o.keys[key]
	if h == nil {
		return 0, true
	}
	last := 0
	for v := 1; v <= h.done; v++ {
		if !h.ack[v-1].IsZero() {
			last = v
		}
	}
	return last, !h.ambiguous
}

// memo caches verdicts per distinct reply body: a hot key answers with a
// handful of distinct bodies, each parsed and checked once.
type memo map[int]map[string]verdict

type verdict struct {
	versions []int // versions whose exact answer this body is
	err      error
}

// check verifies one discovery reply for key, sent at s and complete at d.
func (o *oracle) check(m memo, kind opKind, key int, body []byte, s, d time.Time) error {
	byBody := m[key]
	if byBody == nil {
		byBody = map[string]verdict{}
		m[key] = byBody
	}
	v, seen := byBody[string(body)]
	if !seen {
		v = o.judge(kind, key, body)
		byBody[string(body)] = v
	}
	if v.err != nil {
		return v.err
	}
	lo, hi := o.window(key, s, d)
	for _, ver := range v.versions {
		if ver >= lo && ver <= hi {
			return nil
		}
	}
	return fmt.Errorf("%s: answer reflects version %v, want one of %d..%d", o.p.services[key].name, v.versions, lo, hi)
}

func (o *oracle) judge(kind opKind, key int, body []byte) verdict {
	a, err := parseAnswer(kind, body)
	if err != nil {
		return verdict{err: fmt.Errorf("%s: %w", o.p.services[key].name, err)}
	}
	s := &o.p.services[key]
	var v verdict
	var first error
	for ver := 0; ver <= len(o.p.updates[key]); ver++ {
		if err := checkAnswer(o.p, s, o.constraintAt(key, ver), o.uri, a); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		v.versions = append(v.versions, ver)
	}
	if v.versions == nil {
		v.err = first
	}
	return v
}
