package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	bootTimeout = 120 * time.Second
	// reflectTimeout is how long a sampled report may stay invisible
	// before it counts as failed.
	reflectTimeout = 10 * time.Second
	// revealEvery is the pause between polls for a report's forecast;
	// it bounds the resolution of a freshness sample.
	revealEvery = 5 * time.Millisecond
)

// run is one execution of one workload.
type run struct {
	spec       spec
	seed       int64
	window     time.Duration
	trace      bool
	corruptRef bool
	root, dir  string
	bins       binaries
	c          *http.Client
	rec        *recorder
	rng        *rand.Rand

	fleet   []*seedVehicle
	source  *reportSource
	seedCSV string

	srv       *server
	boots     int
	setupSecs []float64
	// bootRSS is each cold boot's peak resident set; windowRSS the
	// highest peak of any later incarnation of the server.
	bootRSS   []float64
	windowRSS float64
	lateness  []float64 // ms, every open-loop dispatch
	// pendingFresh counts the segment's sampled reports that are not
	// visible yet.
	pendingFresh atomic.Int64

	mu    sync.Mutex
	acked map[string]map[int64]int // vehicle → epoch day → acknowledged tenths
	etags map[string]string        // URL → last ETag seen, for conditional reads

	// stretches are the planned intervals of each stream, one per
	// segment, that its rate is taken over.
	stretches map[string][]stretch

	bulkIDs    []string
	bulkCursor []int

	poller  *statusPoller
	tracing bool // the status poller is running
	events  []genEvent
	// delta accumulates the server's /metrics counters over the traffic
	// segments; shardSkew and probed are the other per-layer sources.
	delta     scrape
	shardSkew float64
	probed    map[string]float64
}

func newRun(root string, bins binaries, sp spec, seed int64, window time.Duration, trace, corruptRef bool) *run {
	r := &run{
		spec: sp, seed: seed, window: window, trace: trace, corruptRef: corruptRef,
		root: root, bins: bins,
		c:         newHTTPClient(),
		rec:       &recorder{epoch: time.Now()},
		rng:       rand.New(rand.NewSource(seed ^ 0x5eed)),
		acked:     map[string]map[int64]int{},
		etags:     map[string]string{},
		stretches: map[string][]stretch{},
	}
	for i := 0; i < sp.bulkVehicles; i++ {
		r.bulkIDs = append(r.bulkIDs, fmt.Sprintf("bulk-%04d", i))
	}
	r.bulkCursor = make([]int, sp.bulkClients)
	return r
}

// execute runs the whole loop and always tears the servers down.
func (r *run) execute(ctx context.Context) (err error) {
	r.dir = filepath.Join(r.root, buildDir, fmt.Sprintf("run-%s-%d", r.spec.name, os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	defer func() {
		if r.poller != nil {
			r.poller.finish()
		}
		if r.srv != nil {
			r.srv.kill()
		}
		if err == nil {
			err = os.RemoveAll(r.dir)
		}
	}()
	if err := r.prepare(ctx); err != nil {
		return err
	}
	if err := r.setup(); err != nil {
		return err
	}
	if err := r.selfCheck(); err != nil {
		return err
	}
	if err := r.trafficAndCrashes(); err != nil {
		return err
	}
	if r.poller != nil {
		r.events = r.poller.finish()
		r.poller = nil
	}
	r.outputCheck()
	if r.trace {
		r.srv.kill() // the probes time layers on their own; nothing may compete
		r.runProbes(ctx)
	}
	return nil
}

// fleetSeed is fleetgen's default seed: the repository's one synthetic
// stand-in for the paper's fleet. Every run trains the same vehicles,
// because a different fleet is a different amount of training work and
// runs would not be comparable; the workload seed varies the traffic —
// arrival times, the order vehicles report in, what they report, which
// reads are made.
const fleetSeed = 42

// prepare generates the fleet and cuts it into the paper's categories.
func (r *run) prepare(ctx context.Context) error {
	gen := filepath.Join(r.dir, "generated.csv")
	if _, err := runTool(ctx, r.bins.gen, "-vehicles", strconv.Itoa(r.spec.vehicles), "-seed", strconv.Itoa(fleetSeed), "-o", gen); err != nil {
		return err
	}
	fleet, err := readFleetCSV(gen)
	if err != nil {
		return err
	}
	if err := truncateFleet(fleet); err != nil {
		return err
	}
	r.fleet = fleet
	r.source = newReportSource(fleet, r.seed)
	r.seedCSV = filepath.Join(r.dir, "seed.csv")
	return writeFleetCSV(r.seedCSV, fleet, nil)
}

// serverFlags returns the workload's fleetserver flags with data
// directories under dataDir.
func (r *run) serverFlags(dataDir string) []string {
	flags := []string{"-data", r.seedCSV}
	for _, f := range r.spec.flags {
		f = strings.ReplaceAll(f, "{wal}", filepath.Join(dataDir, "wal"))
		f = strings.ReplaceAll(f, "{snap}", filepath.Join(dataDir, "snap"))
		flags = append(flags, f)
	}
	return flags
}

func (r *run) spawn(dataDir string, port int) (*server, error) {
	r.boots++
	return startServer(r.bins.server, r.dir, fmt.Sprintf("server-%d", r.boots), port, r.serverFlags(dataDir)...)
}

// setup cold-boots the server setupBoots times, each on empty data
// directories, and keeps the last one for the run. Each boot is followed
// to the end of its first spill, so that its peak memory covers the same
// work every time.
func (r *run) setup() error {
	for i := 0; i < setupBoots; i++ {
		dataDir := filepath.Join(r.dir, fmt.Sprintf("data-%d", i))
		srv, err := r.spawn(dataDir, 0)
		if err != nil {
			return err
		}
		r.srv = srv
		took, err := srv.waitReady(r.c, bootTimeout)
		sp := span{Name: spanBoot, Phase: phaseSetup, Due: r.rec.since(srv.started), Start: r.rec.since(srv.started), End: r.rec.since(time.Now())}
		if err != nil {
			sp.Failed = err.Error()
			r.rec.add(sp)
			return err
		}
		r.rec.add(sp)
		r.setupSecs = append(r.setupSecs, took.Seconds())
		if err := r.quiesce(); err != nil {
			return err
		}
		if mb, err := srv.peakRSSMB(); err == nil {
			r.bootRSS = append(r.bootRSS, mb)
		}
		if i < setupBoots-1 {
			srv.kill()
			if err := os.RemoveAll(dataDir); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *run) dataDir() string { return filepath.Join(r.dir, fmt.Sprintf("data-%d", setupBoots-1)) }

func (r *run) noteRSS(s *server) {
	if mb, err := s.peakRSSMB(); err == nil && mb > r.windowRSS {
		r.windowRSS = mb
	}
}

func (r *run) forecastURL(id string) string { return r.srv.base + "/vehicles/" + id + "/forecast" }

// selfCheck verifies, before anything is measured, that every seed
// vehicle's forecast is as of its last seed day. Freshness detection
// rests on that reading of the forecast; if the API's meaning changes,
// the benchmark stops here instead of measuring something else.
func (r *run) selfCheck() error {
	for _, v := range r.fleet {
		res, err := get(r.c, r.forecastURL(v.id), "")
		if err != nil {
			return err
		}
		if res.status != http.StatusOK {
			return fmt.Errorf("self-check: GET forecast of %s: status %d: %s", v.id, res.status, bytes.TrimSpace(res.body))
		}
		asOf, err := asOfDay(res.body)
		if err != nil {
			return fmt.Errorf("self-check: forecast of %s: %w", v.id, err)
		}
		if want := epochDay(v.lastDay()); asOf != want {
			return fmt.Errorf("self-check: forecast of %s is as of day %d, its telemetry ends on day %d: due_date − round(days_left) no longer names the last report", v.id, asOf, want)
		}
	}
	return nil
}

// quiesce lets a boot or a recovery finish before a segment is timed:
// the generation being built or spilled completes (until then a report
// would get no retrain kick), and the dirty pages left by the boots
// reach the disk, so their write-back does not slow the segment's
// fsyncs.
func (r *run) quiesce() error {
	deadline := time.Now().Add(bootTimeout)
	for {
		var st routerStatus
		if err := getJSON(r.c, r.srv.base+"/admin/status", &st); err != nil {
			return err
		}
		busy := false
		for _, sh := range st.shards() {
			busy = busy || sh.Retraining || !sh.Ready
		}
		if !busy {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server still retraining %v after its boot", bootTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	syscall.Sync()
	return nil
}

// trafficAndCrashes runs the window: spec.segments stretches of
// traffic, each followed by a crash cycle, then the remaining crash
// cycles back to back. In a traced run the first quarter of every
// segment runs before the status poller starts, so the same run yields
// the untraced baseline that the tracing overhead is measured against.
func (r *run) trafficAndCrashes() error {
	segLen := r.window / time.Duration(r.spec.segments)
	for i := 0; i < max(r.spec.segments, r.spec.crashes); i++ {
		if i < r.spec.segments {
			if err := r.quiesce(); err != nil {
				return err
			}
			r.runSegment(segLen)
		}
		if i < r.spec.crashes {
			if err := r.crashCycle(); err != nil {
				return err
			}
		}
	}
	return nil
}

// reportItem is one scheduled single-report POST.
type reportItem struct {
	rep     report
	v       *seedVehicle
	door    string
	sampled bool
}

// runSegment drives every stream of the workload for d, then waits for
// every report of the segment to become visible.
func (r *run) runSegment(d time.Duration) {
	// Inputs are drawn before the clock starts, in a fixed order, so a
	// seed fixes them regardless of how the streams interleave.
	reportDue := openSchedule(r.rng, int(math.Round(r.spec.reportRate*d.Seconds())), d, r.spec.reportGap)
	reports := make([]reportItem, len(reportDue))
	for i := range reports {
		rep, v := r.source.nextReport()
		door := doorJSON
		switch {
		case r.spec.bulkClients > 0 && reportDue[i] < d/2:
			door = doorBinary // singles follow the bulk stream's door, so each door's rate is one phase's
		case r.spec.bulkClients == 0 && i%2 == 0:
			door = doorBinary
		}
		reports[i] = reportItem{rep: rep, v: v, door: door, sampled: true}
	}
	r.pendingFresh.Store(int64(len(reports)))
	readDue := openSchedule(r.rng, int(math.Round(r.spec.readRate*d.Seconds())), d, 0)
	reads := make([]readItem, len(readDue))
	for i := range reads {
		reads[i] = r.pickRead(r.rng)
	}
	clientRNG := make([]*rand.Rand, r.spec.readClients)
	for i := range clientRNG {
		clientRNG[i] = rand.New(rand.NewSource(r.rng.Int63()))
	}

	if r.trace {
		before := r.scrapeServer()
		r.noteShardSkew()
		defer func() { r.addDelta(before, r.scrapeServer()) }()
	}
	start := time.Now()
	if r.trace {
		timer := time.AfterFunc(d/4, func() { r.setTracing(true) })
		defer func() {
			timer.Stop()
			r.setTracing(false)
		}()
	}
	var wg sync.WaitGroup
	stream := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	if len(reports) > 0 {
		stream(func() {
			r.noteLate(runOpenLoop(start, reportDue, func(i int, due time.Time) { r.sendReport(reports[i], due, phaseWindow) }))
		})
		stream(func() { r.coolDown(start.Add(d)) })
	}
	if len(reads) > 0 {
		stream(func() {
			r.noteLate(runOpenLoop(start, readDue, func(i int, due time.Time) { r.doRead(reads[i], due) }))
		})
	}
	if r.spec.readClients > 0 {
		stream(func() {
			runClosedLoop(r.spec.readClients, start.Add(d), func(c int) { r.doRead(r.pickRead(clientRNG[c]), time.Now()) })
		})
	}
	if r.spec.bulkClients > 0 {
		stream(func() {
			runClosedLoop(r.spec.bulkClients, start.Add(d), func(c int) {
				door := doorJSON
				if time.Since(start) < d/2 {
					door = doorBinary
				}
				r.sendBulk(c, door)
			})
		})
	}
	wg.Wait()

	// Each stream's rate is taken over the stretch it was meant to run
	// in: the doors share a segment in halves when there is a bulk
	// stream, and both span it otherwise.
	whole := stretch{r.rec.since(start), r.rec.since(start.Add(d))}
	first, second := whole, whole
	if r.spec.bulkClients > 0 {
		first.to, second.from = r.rec.since(start.Add(d/2)), r.rec.since(start.Add(d/2))
	}
	r.stretches[streamReads] = append(r.stretches[streamReads], whole)
	r.stretches[doorBinary] = append(r.stretches[doorBinary], first)
	r.stretches[doorJSON] = append(r.stretches[doorJSON], second)
}

// coolDown keeps reports arriving at the workload's pace after the
// segment's schedule has run out, for as long as a sampled report is
// still invisible. A report that lands while a build or its spill holds
// the engine gets no retrain kick and stays stale until the next report
// arrives; without later arrivals the last such report of a segment
// would wait forever. Its wait for the next arrival is part of its
// freshness either way.
func (r *run) coolDown(from time.Time) {
	every := time.Duration(float64(time.Second) / r.spec.reportRate)
	for next := from; ; next = next.Add(every) {
		sleepUntil(next)
		if r.pendingFresh.Load() == 0 {
			return
		}
		rep, v := r.source.nextReport()
		r.sendReport(reportItem{rep: rep, v: v, door: doorJSON}, next, phaseWindow)
	}
}

// stretch is a planned interval of one stream, as offsets from the run's
// epoch.
type stretch struct{ from, to time.Duration }

// streamReads keys the read stream's stretches; the telemetry streams
// are keyed by their door.
const streamReads = "reads"

func (r *run) setTracing(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if on == r.tracing {
		return
	}
	r.tracing = on
	if on && r.poller == nil {
		r.poller = startStatusPoller(r.rec, r.c, r.srv.base)
	}
	if r.poller != nil {
		r.poller.pause(!on)
	}
}

func (r *run) isTracing() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracing
}

func (r *run) noteLate(late []time.Duration) {
	r.mu.Lock()
	for _, l := range late {
		r.lateness = append(r.lateness, float64(l)/float64(time.Millisecond))
	}
	r.mu.Unlock()
}

// lateFailure is the failure reason of an open-loop request the
// generator started more than 5 % of the window after it was due: its
// latency then measures the generator, not the server.
func (r *run) lateFailure(due, start time.Time) string {
	if late := start.Sub(due); late > r.window/20 {
		return fmt.Sprintf("generator ran %v late", late)
	}
	return ""
}

func (r *run) markAcked(reports []report) {
	r.mu.Lock()
	for _, rep := range reports {
		days := r.acked[rep.vehicle]
		if days == nil {
			days = map[int64]int{}
			r.acked[rep.vehicle] = days
		}
		days[epochDay(rep.day)] = rep.tenths
	}
	r.mu.Unlock()
}

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// sendReport posts one report and, when it is sampled, waits for the
// first forecast that reflects it.
func (r *run) sendReport(it reportItem, due time.Time, phase string) {
	if it.sampled {
		defer r.pendingFresh.Add(-1)
	}
	buf := bodyPool.Get().(*[]byte)
	start := time.Now()
	err := postReports(r.c, r.srv.base, it.door, buf, []report{it.rep})
	end := time.Now()
	bodyPool.Put(buf)
	sp := span{
		Name: spanReport, Phase: phase, Door: it.door, Reports: 1, Category: it.v.category, Sampled: it.sampled,
		Due: r.rec.since(due), Start: r.rec.since(start), End: r.rec.since(end), Traced: r.isTracing(),
		Failed: r.lateFailure(due, start),
	}
	if err != nil {
		sp.Failed = err.Error()
	} else {
		r.markAcked([]report{it.rep})
		if r.spec.refresh {
			r.requestRetrain()
		}
	}
	id := r.rec.add(sp)
	if err == nil && it.sampled {
		r.awaitFresh(it, sp, id)
	}
}

// requestRetrain asks for a background rebuild, trying again while one
// is already in flight (409): that build may have fetched its data
// before the report just acknowledged.
func (r *run) requestRetrain() {
	for try := 0; try < 200; try++ {
		resp, err := r.c.Post(r.srv.base+"/admin/retrain", "", nil)
		if err != nil {
			return // the freshness wait reports what follows
		}
		drain(resp)
		if resp.StatusCode != http.StatusConflict {
			return
		}
		time.Sleep(revealEvery)
	}
}

// awaitFresh polls the vehicle's forecast until it is as of the
// report's day, and records the freshness span (report due → revealing
// read answered) with the revealing read as its child.
func (r *run) awaitFresh(it reportItem, rep span, reportID int) {
	want := epochDay(it.rep.day)
	url := r.forecastURL(it.rep.vehicle)
	fresh := span{Name: spanFresh, Phase: rep.Phase, Parent: reportID, Category: rep.Category, Due: rep.Due, Start: rep.End, Traced: rep.Traced}
	deadline := time.Now().Add(reflectTimeout)
	etag := ""
	for {
		start := time.Now()
		res, err := get(r.c, url, etag)
		end := time.Now()
		if err == nil && res.status == http.StatusOK {
			etag = res.etag
			if asOf, err := asOfDay(res.body); err == nil && asOf >= want {
				fresh.End = r.rec.since(end)
				id := r.rec.add(fresh)
				r.rec.add(span{Name: spanReveal, Phase: rep.Phase, Parent: id, Route: routeForecast, Status: res.status, Gen: res.generation,
					Due: r.rec.since(start), Start: r.rec.since(start), End: r.rec.since(end)})
				return
			}
		}
		if end.After(deadline) {
			fresh.End = r.rec.since(end)
			fresh.Failed = fmt.Sprintf("report for %s day %s not reflected within %v", it.rep.vehicle, it.rep.day.Format(dayLayout), reflectTimeout)
			r.rec.add(fresh)
			return
		}
		time.Sleep(revealEvery)
	}
}

// Read routes, as they are named in metrics and spans.
const (
	routeForecast = "forecast"
	routeFleet    = "fleet"
	routePlan     = "plan"
)

type readItem struct {
	route, path string
	conditional bool
}

// pickRead draws one read from the workload's mix. Half of all reads
// replay the last ETag seen for their URL.
func (r *run) pickRead(rng *rand.Rand) readItem {
	it := readItem{conditional: rng.Intn(2) == 0}
	switch p := rng.Intn(100); {
	case p < r.spec.readMix[0]:
		it.route = routeForecast
		it.path = "/vehicles/" + r.fleet[rng.Intn(len(r.fleet))].id + "/forecast"
	case p < r.spec.readMix[0]+r.spec.readMix[1]:
		it.route, it.path = routeFleet, "/fleet/forecast"
	default:
		k := rng.Intn(r.spec.planCombos)
		it.route = routePlan
		it.path = fmt.Sprintf("/fleet/plan?capacity=%d&horizon=%d&maxlead=%d", 1+k%4, 120+30*(k/4%8), 3+k/32%8)
	}
	return it
}

func (r *run) doRead(it readItem, due time.Time) {
	etag := ""
	if it.conditional {
		r.mu.Lock()
		etag = r.etags[it.path]
		r.mu.Unlock()
	}
	start := time.Now()
	res, err := get(r.c, r.srv.base+it.path, etag)
	end := time.Now()
	sp := span{
		Name: spanRead, Phase: phaseWindow, Route: it.route, Status: res.status, Gen: res.generation,
		Due: r.rec.since(due), Start: r.rec.since(start), End: r.rec.since(end), Traced: r.isTracing(),
		Failed: r.lateFailure(due, start),
	}
	switch {
	case err != nil:
		sp.Failed = err.Error()
	case res.status == http.StatusOK:
		r.mu.Lock()
		r.etags[it.path] = res.etag
		r.mu.Unlock()
	case res.status != http.StatusNotModified:
		sp.Failed = fmt.Sprintf("GET %s: status %d", it.path, res.status)
	}
	r.rec.add(sp)
}

// sendBulk posts the client's next bulkBatch reports. Each client owns
// every bulkClients-th synthetic vehicle and walks its vehicles day by
// day, cycling with new values, so batches never race for a (vehicle,
// day) and the last acknowledged value of each is known.
func (r *run) sendBulk(client int, door string) {
	var ids []string
	for i := client; i < len(r.bulkIDs); i += r.spec.bulkClients {
		ids = append(ids, r.bulkIDs[i])
	}
	firstDay := r.fleet[0].lastDay().AddDate(0, 0, -(bulkDays - 1))
	reports := make([]report, bulkBatch)
	for i := range reports {
		slot := r.bulkCursor[client]*bulkBatch + i
		cycle := slot / (len(ids) * bulkDays)
		reports[i] = report{
			vehicle: ids[slot/bulkDays%len(ids)],
			day:     firstDay.AddDate(0, 0, slot%bulkDays),
			tenths:  10000 + (slot*37+cycle*1009)%500000,
		}
	}
	r.bulkCursor[client]++
	buf := bodyPool.Get().(*[]byte)
	start := time.Now()
	err := postReports(r.c, r.srv.base, door, buf, reports)
	end := time.Now()
	bodyPool.Put(buf)
	sp := span{Name: spanBulk, Phase: phaseWindow, Door: door, Reports: len(reports), Traced: r.isTracing(),
		Due: r.rec.since(start), Start: r.rec.since(start), End: r.rec.since(end)}
	if err != nil {
		sp.Failed = err.Error()
	} else {
		r.markAcked(reports)
	}
	r.rec.add(sp)
}

// crashCycle acknowledges one report for each of the first crashReports
// old vehicles, kills
// the server with SIGKILL before their retrain can be persisted,
// restarts it on the same directories and port, and times the recovery:
// until /readyz answers, and until every report acknowledged before the
// kill is reflected by its vehicle's forecast.
func (r *run) crashCycle() error {
	// From an idle, fully persisted server, so that every recovery
	// starts from the same state: the last generation on disk, the WAL
	// compacted, and only the reports below beyond them.
	if err := r.quiesce(); err != nil {
		return err
	}
	sent := 0
	for _, v := range r.fleet {
		// Always the same old vehicles, so every recovery retrains the
		// same models and the cycles of a run are comparable.
		if v.category == catOld && sent < crashReports {
			r.sendReport(reportItem{rep: r.source.reportFor(v), v: v, door: doorJSON}, time.Now(), phaseCrash)
			sent++
		}
	}
	r.noteRSS(r.srv)
	r.srv.kill()
	// The pooled connections died with the server; a POST sent on one
	// would fail instead of being retried.
	r.c.CloseIdleConnections()
	if r.poller != nil {
		r.poller.restart()
	}
	srv, err := r.spawn(r.dataDir(), r.srv.port)
	if err != nil {
		return err
	}
	r.srv = srv
	spawned := r.rec.since(srv.started)
	_, err = srv.waitReady(r.c, bootTimeout)
	ready := span{Name: spanRecoverReady, Phase: phaseCrash, Due: spawned, Start: spawned, End: r.rec.since(time.Now())}
	if err != nil {
		ready.Failed = err.Error()
		r.rec.add(ready)
		return err
	}
	r.rec.add(ready)

	fresh := span{Name: spanRecoverFresh, Phase: phaseCrash, Due: spawned, Start: spawned}
	pending := map[string]int64{}
	r.mu.Lock()
	for _, v := range r.fleet {
		for day := range r.acked[v.id] {
			if day > pending[v.id] {
				pending[v.id] = day
			}
		}
	}
	r.mu.Unlock()
	deadline := time.Now().Add(bootTimeout)
	for len(pending) > 0 {
		for id, want := range pending {
			res, err := get(r.c, r.forecastURL(id), "")
			if err != nil || res.status != http.StatusOK {
				continue
			}
			if asOf, err := asOfDay(res.body); err == nil && asOf >= want {
				delete(pending, id)
			}
		}
		if len(pending) > 0 {
			if time.Now().After(deadline) {
				fresh.Failed = fmt.Sprintf("%d vehicles still miss acknowledged reports %v after the restart", len(pending), bootTimeout)
				break
			}
			time.Sleep(revealEvery)
		}
	}
	fresh.End = r.rec.since(time.Now())
	r.rec.add(fresh)
	return nil
}

// ingestStats is the part of GET /admin/ingest the output check reads;
// the router wraps one per shard (all in-process shards share a store).
type ingestStats struct {
	PerVehicle []struct {
		ID   string `json:"id"`
		Days int    `json:"days"`
	} `json:"per_vehicle"`
	Shards map[string]json.RawMessage `json:"shards"`
}

// outputCheck settles the server, then requires (1) that the store
// holds exactly the seed days plus every acknowledged report, and (2)
// that a fresh unsharded, WAL-less server booted on a CSV of the same
// data serves a byte-identical GET /fleet/forecast: incremental equals
// full rebuild, sharded equals unsharded, nothing acknowledged is lost.
func (r *run) outputCheck() {
	for _, c := range []struct {
		name string
		fn   func() error
	}{
		{"settle", r.settle},
		{"acked_equals_applied", r.checkApplied},
		{"reference_identical", r.checkReference},
	} {
		start := time.Now()
		sp := span{Name: spanCheck, Phase: phaseCheck, Route: c.name, Due: r.rec.since(start), Start: r.rec.since(start)}
		if err := c.fn(); err != nil {
			sp.Failed = err.Error()
		}
		sp.End = r.rec.since(time.Now())
		r.rec.add(sp)
	}
}

func (r *run) checkApplied() error {
	var st ingestStats
	if err := getJSON(r.c, r.srv.base+"/admin/ingest", &st); err != nil {
		return err
	}
	for _, shard := range st.Shards {
		st = ingestStats{}
		if err := json.Unmarshal(shard, &st); err != nil {
			return err
		}
		break
	}
	applied, want := 0, 0
	for _, v := range st.PerVehicle {
		applied += v.Days
	}
	for _, v := range r.fleet {
		want += len(v.seconds)
	}
	for _, days := range r.acked {
		want += len(days)
	}
	if applied != want {
		return fmt.Errorf("store holds %d vehicle-days, seed plus acknowledged reports make %d", applied, want)
	}
	return nil
}

func (r *run) checkReference() error {
	got, err := get(r.c, r.srv.base+"/fleet/forecast", "")
	if err != nil {
		return err
	}
	if got.status != http.StatusOK {
		return fmt.Errorf("GET /fleet/forecast: status %d", got.status)
	}
	r.noteRSS(r.srv)
	want, err := r.referenceForecast()
	if err != nil {
		return err
	}
	if !bytes.Equal(got.body, want) {
		return fmt.Errorf("GET /fleet/forecast differs from the reference rebuild (%d vs %d bytes)", len(got.body), len(want))
	}
	return nil
}

// settle waits for any build in flight and then runs one waited
// retrain, so the served generation covers everything acknowledged.
func (r *run) settle() error {
	deadline := time.Now().Add(bootTimeout)
	for {
		resp, err := r.c.Post(r.srv.base+"/admin/retrain?wait=1", "", nil)
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16)) // only quoted in the error below
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			return nil
		case resp.StatusCode != http.StatusConflict:
			return fmt.Errorf("POST /admin/retrain?wait=1: %s: %s", resp.Status, bytes.TrimSpace(body))
		case time.Now().After(deadline):
			return fmt.Errorf("POST /admin/retrain?wait=1 still answers 409 after %v", bootTimeout)
		}
		time.Sleep(10 * time.Millisecond) // a build is in flight; it ends on its own
	}
}

// referenceForecast boots the reference server on the seed CSV plus
// every acknowledged report and returns its GET /fleet/forecast body.
func (r *run) referenceForecast() ([]byte, error) {
	acked := r.acked
	if r.corruptRef {
		acked = dropOneReport(r.fleet, acked)
	}
	refCSV := filepath.Join(r.dir, "reference.csv")
	if err := writeFleetCSV(refCSV, r.fleet, acked); err != nil {
		return nil, err
	}
	ref, err := startServer(r.bins.server, r.dir, "reference", 0, "-data", refCSV)
	if err != nil {
		return nil, err
	}
	defer ref.kill()
	if _, err := ref.waitReady(r.c, bootTimeout); err != nil {
		return nil, err
	}
	res, err := get(r.c, ref.base+"/fleet/forecast", "")
	if err != nil {
		return nil, err
	}
	if res.status != http.StatusOK {
		return nil, fmt.Errorf("reference GET /fleet/forecast: status %d", res.status)
	}
	return res.body, nil
}

// dropOneReport returns acked without the latest report of the first
// vehicle of the fleet that has one — the deliberate corruption that
// must fail the check.
func dropOneReport(fleet []*seedVehicle, acked map[string]map[int64]int) map[string]map[int64]int {
	out := make(map[string]map[int64]int, len(acked))
	for id, days := range acked {
		out[id] = days
	}
	for _, v := range fleet {
		if len(acked[v.id]) == 0 {
			continue
		}
		kept, last := map[int64]int{}, int64(0)
		for d, t := range acked[v.id] {
			kept[d] = t
			last = max(last, d)
		}
		delete(kept, last)
		out[v.id] = kept
		break
	}
	return out
}
