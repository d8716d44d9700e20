package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rubik"
	// The facade does not re-export these parameter types and the
	// closed-loop source interface; the wrappers name them and call
	// nothing else from the internal packages.
	"rubik/internal/capping"
	"rubik/internal/queueing"
	"rubik/internal/workload"
)

// The ledger measures each layer from outside the program: it wraps the
// pluggable values the facade accepts (the controller, the source, the
// dispatcher, the per-socket and tree-level allocators), and each wrapper
// reads the monotonic clock around every call into its layer. The layers
// never nest one wrapped call inside another, so on one shard their
// summed times split the run's wall time, and the remainder is the
// substrate: event engine, cores, feeders, capping glue and epoch
// barriers.

// callStat counts calls into one layer and their summed duration.
type callStat struct {
	calls int64
	ns    int64
}

func (c *callStat) add(ns int64) {
	c.calls++
	c.ns += ns
}

func (c callStat) plus(o callStat) callStat { return callStat{c.calls + o.calls, c.ns + o.ns} }

// atomicStat is a callStat for a wrapper that several shards share.
type atomicStat struct{ calls, ns atomic.Int64 }

func (c *atomicStat) add(ns int64) {
	c.calls.Add(1)
	c.ns.Add(ns)
}

func (c *atomicStat) load() callStat { return callStat{c.calls.Load(), c.ns.Load()} }

// span is one timed interval, in ns since the ledger's start.
type span struct {
	name       string
	start, end int64
}

// socketLedger aggregates one socket's calls. Only the goroutine
// simulating the socket touches it, and fleet runs hand a socket between
// goroutines only across a barrier, so it needs no locks.
type socketLedger struct {
	decide, tick, observe, slack, next, pick callStat
	// deepDecisions counts decisions whose queue held >= 8 requests.
	deepDecisions int64
	first, last   int64
	seen          bool
	ticks         []span
	ctls          []*rubik.Controller
}

func (sl *socketLedger) note(start, end int64) {
	if !sl.seen {
		sl.first, sl.seen = start, true
	}
	sl.last = end
}

// ledger is one traced run's record.
type ledger struct {
	t0      time.Time
	sockets []socketLedger
	alloc   atomicStat
	level   atomicStat

	mu        sync.Mutex
	runSpans  []span // report calls and tree-level allocation rounds
	wallStart int64
	wallEnd   int64
}

func newLedger(sockets int) *ledger {
	return &ledger{t0: time.Now(), sockets: make([]socketLedger, sockets)}
}

func (l *ledger) now() int64 { return int64(time.Since(l.t0)) }

func (l *ledger) addRunSpan(name string, start, end int64) {
	l.mu.Lock()
	l.runSpans = append(l.runSpans, span{name, start, end})
	l.mu.Unlock()
}

// timed runs fn as a run-level span; a nil ledger just runs fn.
func (l *ledger) timed(name string, fn func()) {
	if l == nil {
		fn()
		return
	}
	start := l.now()
	fn()
	l.addRunSpan(name, start, l.now())
}

// tracedPolicy wraps a Rubik controller. It implements exactly the
// optional interfaces *rubik.Controller implements (Ticker,
// CompletionObserver, SlackReporter, TableCacheUser); wrapper_test.go
// pins that.
type tracedPolicy struct {
	ctl *rubik.Controller
	l   *ledger
	sl  *socketLedger
}

func (l *ledger) wrapPolicy(socket int, ctl *rubik.Controller) *tracedPolicy {
	sl := &l.sockets[socket]
	sl.ctls = append(sl.ctls, ctl)
	return &tracedPolicy{ctl: ctl, l: l, sl: sl}
}

func (p *tracedPolicy) Name() string { return p.ctl.Name() }

func (p *tracedPolicy) OnEvent(v queueing.View) int {
	start := p.l.now()
	f := p.ctl.OnEvent(v)
	end := p.l.now()
	p.sl.decide.add(end - start)
	p.sl.note(start, end)
	if len(v.Queue) >= 8 {
		p.sl.deepDecisions++
	}
	return f
}

func (p *tracedPolicy) TickEvery() rubik.Time { return p.ctl.TickEvery() }

func (p *tracedPolicy) OnTick(v queueing.View) int {
	start := p.l.now()
	f := p.ctl.OnTick(v)
	end := p.l.now()
	p.sl.tick.add(end - start)
	p.sl.note(start, end)
	p.sl.ticks = append(p.sl.ticks, span{"tick", start, end})
	return f
}

func (p *tracedPolicy) ObserveCompletion(c rubik.Completion) {
	start := p.l.now()
	p.ctl.ObserveCompletion(c)
	end := p.l.now()
	p.sl.observe.add(end - start)
	p.sl.note(start, end)
}

func (p *tracedPolicy) PredictedSlackNs(v queueing.View) float64 {
	start := p.l.now()
	s := p.ctl.PredictedSlackNs(v)
	end := p.l.now()
	p.sl.slack.add(end - start)
	p.sl.note(start, end)
	return s
}

func (p *tracedPolicy) SetTableCache(c *rubik.TableCache) { p.ctl.SetTableCache(c) }

// tracedSource counts and times Source.Next.
type tracedSource struct {
	src rubik.Source
	l   *ledger
	sl  *socketLedger
}

// tracedAwareSource adds the completion-aware methods, for sources that
// have them.
type tracedAwareSource struct {
	*tracedSource
	aware workload.CompletionAware
}

func (l *ledger) wrapSource(socket int, src rubik.Source) rubik.Source {
	ts := &tracedSource{src: src, l: l, sl: &l.sockets[socket]}
	if ca, ok := src.(workload.CompletionAware); ok {
		return tracedAwareSource{ts, ca}
	}
	return ts
}

func (s *tracedSource) Next() (rubik.Request, bool) {
	start := s.l.now()
	r, ok := s.src.Next()
	end := s.l.now()
	s.sl.next.add(end - start)
	s.sl.note(start, end)
	return r, ok
}

func (s *tracedSource) Len() int { return s.src.Len() }
func (s *tracedSource) Reset()   { s.src.Reset() }

func (s tracedAwareSource) OnCompletion(done rubik.Time) { s.aware.OnCompletion(done) }
func (s tracedAwareSource) Requeue(req rubik.Request)    { s.aware.Requeue(req) }
func (s tracedAwareSource) Exhausted() bool              { return s.aware.Exhausted() }

// tracedDispatcher counts and times Dispatcher.Pick.
type tracedDispatcher struct {
	d  rubik.Dispatcher
	l  *ledger
	sl *socketLedger
}

func (l *ledger) wrapDispatcher(socket int, d rubik.Dispatcher) rubik.Dispatcher {
	return &tracedDispatcher{d: d, l: l, sl: &l.sockets[socket]}
}

func (d *tracedDispatcher) Name() string { return d.d.Name() }
func (d *tracedDispatcher) Reset()       { d.d.Reset() }

func (d *tracedDispatcher) Pick(req rubik.Request, cores []rubik.CoreState) int {
	start := d.l.now()
	i := d.d.Pick(req, cores)
	end := d.l.now()
	d.sl.pick.add(end - start)
	d.sl.note(start, end)
	return i
}

// tracedAllocator counts and times Allocator.Allocate. One value serves
// every socket of every shard, so it counts atomically.
type tracedAllocator struct {
	a rubik.Allocator
	l *ledger
}

func (l *ledger) wrapAllocator(a rubik.Allocator) rubik.Allocator {
	return &tracedAllocator{a: a, l: l}
}

func (a *tracedAllocator) Name() string { return a.a.Name() }

func (a *tracedAllocator) Allocate(d *capping.Domain, demands []capping.Demand, grants []int) {
	start := a.l.now()
	a.a.Allocate(d, demands, grants)
	a.l.alloc.add(a.l.now() - start)
}

// tracedLevelAllocator counts and times LevelAllocator.AllocateLevel,
// one call per tree node per budget-tree round.
type tracedLevelAllocator struct {
	a rubik.LevelAllocator
	l *ledger
}

func (l *ledger) wrapLevelAllocator(a rubik.LevelAllocator) rubik.LevelAllocator {
	return &tracedLevelAllocator{a: a, l: l}
}

func (a *tracedLevelAllocator) Name() string { return a.a.Name() }

func (a *tracedLevelAllocator) AllocateLevel(budgetW float64, children []capping.ChildDemand, grants []float64) {
	start := a.l.now()
	a.a.AllocateLevel(budgetW, children, grants)
	end := a.l.now()
	a.l.level.add(end - start)
	a.l.addRunSpan("tree_level", start, end)
}

// totals sums the per-socket records.
func (l *ledger) totals() socketLedger {
	var t socketLedger
	for i := range l.sockets {
		sl := &l.sockets[i]
		t.decide = t.decide.plus(sl.decide)
		t.tick = t.tick.plus(sl.tick)
		t.observe = t.observe.plus(sl.observe)
		t.slack = t.slack.plus(sl.slack)
		t.next = t.next.plus(sl.next)
		t.pick = t.pick.plus(sl.pick)
		t.deepDecisions += sl.deepDecisions
		t.ctls = append(t.ctls, sl.ctls...)
	}
	return t
}

// tickQuantiles returns the p50 and p99 OnTick durations (nearest rank).
func (l *ledger) tickQuantiles() (p50, p99 float64) {
	var d []int64
	for i := range l.sockets {
		for _, s := range l.sockets[i].ticks {
			d = append(d, s.end-s.start)
		}
	}
	if len(d) == 0 {
		return 0, 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	rank := func(q float64) float64 {
		k := int(q*float64(len(d))+0.999999999) - 1
		if k < 0 {
			k = 0
		}
		return float64(d[k])
	}
	return rank(0.5), rank(0.99)
}

// spanRecord is one line of the span file. Parent 0 is the run span's
// parent (none); ids are unique within the file.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Socket  int    `json:"socket"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeSpans writes every ledger's spans as JSON lines: one run span per
// traced run; under it one span per socket (its first to last wrapped
// call), the report calls and the tree-level allocation rounds; under
// each socket one span per OnTick. Per-event calls are aggregated in the
// metrics, not stored as spans.
func writeSpans(path string, ledgers []*ledger) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := 0
	emit := func(parent int, name string, socket int, start, end int64) int {
		id++
		if err == nil {
			err = enc.Encode(spanRecord{id, parent, name, socket, start, end})
		}
		return id
	}
	for r, l := range ledgers {
		run := emit(0, fmt.Sprintf("run-%d", r), -1, l.wallStart, l.wallEnd)
		for _, s := range l.runSpans {
			emit(run, s.name, -1, s.start, s.end)
		}
		for s := range l.sockets {
			sl := &l.sockets[s]
			sock := emit(run, "socket", s, sl.first, sl.last)
			for _, t := range sl.ticks {
				emit(sock, t.name, s, t.start, t.end)
			}
		}
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
