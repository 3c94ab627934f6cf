package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once must inflate the latency of every request
// queued behind the stall, not only the one it stalled on.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Every request passes the lock, so the stall blocks them all.
		mu.Lock()
		if n.Add(1) == 50 {
			time.Sleep(stall)
		}
		mu.Unlock()
	}))
	defer srv.Close()

	var ops []op
	for i := 0; i < 600; i++ { // 1000/s for 0.6s
		ops = append(ops, op{at: time.Duration(i) * time.Millisecond})
	}
	clients := []*http.Client{{}, {}}
	send := func(lane int, o op, id int) (time.Duration, time.Time, bool) {
		resp, err := clients[lane].Get(srv.URL)
		if err != nil {
			return 0, time.Now(), false
		}
		resp.Body.Close()
		return 0, time.Now(), true
	}
	samples := runOpen(ops, 2, send)
	slow, worst := 0, time.Duration(0)
	for _, s := range samples {
		if s.lat >= stall/4 {
			slow++
		}
		if s.lat > worst {
			worst = s.lat
		}
	}
	if worst < stall*3/4 {
		t.Errorf("worst latency %v, want about the %v stall", worst, stall)
	}
	// About 200 requests were due during the stall; timed from their
	// actual send, at most the two in flight would look slow.
	if slow < 50 {
		t.Errorf("%d requests charged with the stall, want the ~150 queued behind it", slow)
	}
}

// Time the generator holds an op back, to keep a key's updates in
// version order, is its own and must not be charged to the registry.
func TestHeldTimeIsNotCharged(t *testing.T) {
	const hold = 50 * time.Millisecond
	send := func(lane int, o op, id int) (time.Duration, time.Time, bool) {
		time.Sleep(hold)
		return hold, time.Now(), true
	}
	ops := []op{{at: 0}, {at: time.Millisecond}} // one per lane
	closed, _ := runClosed(ops, 2, time.Minute, send)
	for phase, samples := range map[string][]sample{"open": runOpen(ops, 2, send), "closed": closed} {
		for i, s := range samples {
			if !s.ok || s.lat >= hold/2 {
				t.Errorf("%s op %d: latency %v ok=%v, want the %v hold left out", phase, i, s.lat, s.ok, hold)
			}
		}
	}
}

func testPlan(t *testing.T) (*plan, func(*serviceSpec, bindingSpec) string) {
	t.Helper()
	wl, err := workloadByName("hot-reads")
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(wl, 7, 0.5, 100)
	f := &hostFleet{}
	for k := range p.hosts {
		f.ports = append(f.ports, 9000+k)
	}
	return p, f.uri(p)
}

// mixedService returns a service with both eligible and ineligible bindings.
func mixedService(t *testing.T, p *plan) *serviceSpec {
	t.Helper()
	for i := range p.services {
		s := &p.services[i]
		elig := 0
		for _, b := range s.bindings {
			if s.cons.admits(p.hosts[b.host]) {
				elig++
			}
		}
		if elig > 0 && elig < len(s.bindings) {
			return s
		}
	}
	t.Fatal("no service with mixed eligibility")
	return nil
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	p, uri := testPlan(t)
	s := mixedService(t, p)
	want := p.expected(s, s.cons, uri)
	var ineligible string
	for _, b := range s.bindings {
		if !s.cons.admits(p.hosts[b.host]) {
			ineligible = uri(s, b)
		}
	}
	good := answer{URIs: want, Eligible: len(want), Ineligible: len(s.bindings) - len(want)}
	if err := checkAnswer(p, s, s.cons, uri, good); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	cases := map[string]struct {
		a    answer
		want string
	}{
		"foreign":    {answer{URIs: append([]string{"http://10.9.9.9:1/x"}, want...), Eligible: len(want) + 1}, "foreign"},
		"ineligible": {answer{URIs: append(append([]string(nil), want...), ineligible), Eligible: len(want) + 1}, "ineligible"},
		"extra":      {answer{URIs: append(append([]string(nil), want...), want[0]), Eligible: len(want) + 1}, "bindings"},
		"missing":    {answer{URIs: want[1:], Eligible: len(want) - 1, Ineligible: len(s.bindings) - len(want)}, "bindings"},
		"counts":     {answer{URIs: want, Eligible: len(want), Unknown: 1}, "counts"},
	}
	for name, c := range cases {
		err := checkAnswer(p, s, s.cons, uri, c.a)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, c.want)
		}
	}
}

// A read sent after an update was acknowledged must see that update.
func TestOracleVersionWindow(t *testing.T) {
	p, uri := testPlan(t)
	s := mixedService(t, p)
	key := 0
	for i := range p.services {
		if &p.services[i] == s {
			key = i
		}
	}
	next := constraintSpec{loadMax: 0.1, memKB: 1} // admits no host
	p.updates = map[int][]constraintSpec{key: {next}}
	o := newOracle(p, uri)
	old := answer{URIs: p.expected(s, s.cons, uri)}
	old.Eligible, old.Ineligible = len(old.URIs), len(s.bindings)-len(old.URIs)
	body, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}

	if err := o.check(memo{}, opREST, key, body, time.Now(), time.Now()); err != nil {
		t.Fatalf("read before any update: %v", err)
	}
	o.beginUpdate(key, 1)
	during := time.Now()
	if err := o.check(memo{}, opREST, key, body, during, time.Now()); err != nil {
		t.Fatalf("read concurrent with the update may see the old version: %v", err)
	}
	o.endUpdate(key, 1, true)
	time.Sleep(time.Millisecond)
	if err := o.check(memo{}, opREST, key, body, time.Now(), time.Now()); err == nil {
		t.Fatal("read sent after the ack saw the old version")
	}
}

func TestSeedReproducesSchedule(t *testing.T) {
	for _, wl := range workloads {
		a := newPlan(wl, 42, 1, 500)
		b := newPlan(wl, 42, 1, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different plans", wl.name)
		}
		c := newPlan(wl, 43, 1, 500)
		if reflect.DeepEqual(a.open, c.open) || reflect.DeepEqual(a.hosts, c.hosts) {
			t.Errorf("%s: seeds 42 and 43 gave the same schedule", wl.name)
		}
		// A longer closed stream leaves the open stream unchanged.
		d := newPlan(wl, 42, 1, 5000)
		if !reflect.DeepEqual(a.open, d.open) {
			t.Errorf("%s: closed-loop length changed the open-loop stream", wl.name)
		}
	}
}
