package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	floorplanner "repro"
	"repro/internal/server"
)

// serve is an open loop at a fixed arrival rate into an in-process
// floorpland (server.New(...).Handler(), default workers and queue) on a
// loopback listener. Two sender goroutines, one HTTP connection each,
// take the slots in order, each the next one when it is free, and send it
// at its due time: a client with a pool of two connections. Each request
// is timed from the moment it was due, so when both senders are held up
// by slow solves, the requests queued behind them count the wait.
//
// The shape is the one the workload was first measured at: /v1/solve
// requests at 40 per second, 80% of them from a hot set (exact and
// constructive on relabelings of the SDR instances, answered from the
// server's cache) and 20% exact on fresh relabelings of synthetic bases
// (cache misses), every request at the default per-solve workers.
// Beside them, one batch of session events against a durable session
// per ten solve requests.
type serve struct {
	cfg      *config
	chk      *checker
	dir      string
	srv      *server.Server
	hs       *http.Server
	served   chan struct{} // closed when hs.Serve has returned
	base     string
	client   *http.Client
	hot      []solveReq
	cyc      *cycler // relabels the hot set and the misses
	sessions []*serveSession
	slots    int64 // solve slots already scheduled by earlier measurements
}

// serveMissBases are the designs the misses relabel: the offline
// library's synthetic designs, 2-750 ms each with exact and about 50 ms
// on average. The misses go through them in library order, so every
// run's tail comes from the same slow designs.
func serveMissBases() []base { return synthBases(append(smallSeeds(), largeSeeds...)) }

// Serve mix and knobs.
const (
	serveBatch         = 8 // session events per batch request
	serveSessionEvents = 4000
	// serveTimeLimit bounds each served solve. It is well above the
	// slowest miss (about 1s), so the tail measures solves, not the
	// limit.
	serveTimeLimit = 5 * time.Second
)

// slotKinds is the repeating pattern of the solve requests: 'h' a hot
// request, 'm' a miss. A session batch follows the solve request at
// sessionAfter, half a slot later.
var slotKinds = [10]byte{'h', 'h', 'm', 'h', 'h', 'h', 'h', 'm', 'h', 'h'}

const sessionAfter = 5

// solveReq is one /v1/solve request with its pre-encoded body.
type solveReq struct {
	in     instance
	engine string
	body   []byte
}

// serveSession is a durable session with the stream it replays. Its
// batches are due half a second apart, and the senders send the slots in
// due order, so the batches reach the server in stream order.
type serveSession struct {
	id     string
	events []floorplanner.SessionEvent
	next   int // first event of the next batch to schedule
}

func setupServe(cfg *config, chk *checker) (runner, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, "sessions-")
	if err != nil {
		return nil, err
	}
	s := &serve{cfg: cfg, chk: chk, dir: dir}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serve) start() error {
	s.srv = server.New(server.Config{
		CacheSize:  4096,
		SessionDir: s.dir,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}

	rng := rand.New(rand.NewSource(s.cfg.seed))
	s.cyc = newCycler(s.cfg.seed, serveMissBases())
	// Exact first: its proven answers set the optima the constructive
	// answers are held to.
	for _, engine := range []string{"exact", "constructive"} {
		for _, b := range paperBases() {
			req, err := s.newSolveReq(s.cyc.relabel(b), engine)
			if err != nil {
				return err
			}
			s.hot = append(s.hot, req)
		}
	}
	rng.Shuffle(len(s.hot), func(i, j int) { s.hot[i], s.hot[j] = s.hot[j], s.hot[i] })

	// Warm the hot set: the first answer to each is a cache miss.
	for _, engine := range []string{"exact", "constructive"} {
		for _, req := range s.hot {
			if req.engine != engine {
				continue
			}
			if err := s.solveSlot(req)(&slot{}); err != nil {
				return fmt.Errorf("warming the hot set: %w", err)
			}
		}
	}
	for i := 0; i < 2; i++ {
		id, err := s.createSession()
		if err != nil {
			return err
		}
		s.sessions = append(s.sessions, &serveSession{id: id, events: onlineStream(rng.Int63(), serveSessionEvents)})
	}
	return nil
}

func (s *serve) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.hs != nil {
		s.hs.Shutdown(ctx)
		<-s.served
	}
	if s.srv != nil {
		s.srv.Close(ctx)
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	os.RemoveAll(s.dir)
}

func (s *serve) newSolveReq(in instance, engine string) (solveReq, error) {
	body, err := json.Marshal(server.SolveRequest{Problem: in.p, Engine: engine, TimeLimitMS: serveTimeLimit.Milliseconds()})
	return solveReq{in: in, engine: engine, body: body}, err
}

// post sends a JSON body and decodes a 2xx JSON answer into out.
func (s *serve) post(path string, body []byte, out any) error {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (s *serve) get(path string, out any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (s *serve) createSession() (string, error) {
	body, _ := json.Marshal(server.CreateSessionRequest{Device: "fx70t", Engine: "constructive", SolveBudgetMS: onlineFallbackBudget.Milliseconds()})
	var info server.SessionInfo
	if err := s.post("/v1/sessions", body, &info); err != nil {
		return "", err
	}
	return info.ID, nil
}

// slot is one scheduled request and what became of it.
type slot struct {
	kind                  byte
	at                    time.Duration // due time after the start
	due, sent, recv, done time.Time
	ok, cached            bool
	excess                float64
	hasExcess             bool
}

func (s *serve) measure(tr *tracer) values {
	n := int(s.cfg.seconds.Seconds() * s.cfg.serveRate)
	interval := time.Duration(float64(time.Second) / s.cfg.serveRate)
	var before map[string]float64
	var snaps0 int
	if tr != nil {
		var err error
		before, err = s.scrape()
		s.chk.op(err)
		snaps0 = s.snapshots()
	}

	// Requests are built in due order before the clock starts: the misses
	// and session batches are taken from their sequences in order.
	var slots []slot
	var reqs []func(*slot) error
	hot, batches := 0, 0
	for i := 0; i < n; i++ {
		k := (s.slots + int64(i)) % int64(len(slotKinds))
		sl := slot{kind: slotKinds[k], at: time.Duration(i) * interval}
		switch sl.kind {
		case 'h':
			reqs = append(reqs, s.solveSlot(s.hot[hot%len(s.hot)]))
			hot++
		case 'm':
			req, err := s.newSolveReq(s.cyc.next(), "exact")
			if err != nil {
				reqs = append(reqs, func(*slot) error { return err })
			} else {
				reqs = append(reqs, s.solveSlot(req))
			}
		}
		slots = append(slots, sl)
		if k == sessionAfter {
			slots = append(slots, slot{kind: 's', at: sl.at + interval/2})
			reqs = append(reqs, s.sessionSlot(s.sessions[batches%len(s.sessions)]))
			batches++
		}
	}
	s.slots += int64(n)

	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	var taken atomic.Int64
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(taken.Add(1) - 1)
				if i >= len(slots) {
					return
				}
				sl := &slots[i]
				sl.due = start.Add(sl.at)
				time.Sleep(time.Until(sl.due))
				sl.sent = time.Now()
				err := reqs[i](sl)
				sl.done = time.Now()
				sl.ok = s.chk.op(err)
				op := int64(i + 1)
				root := tr.record(spanRequest, 0, op, sl.due, sl.done)
				tr.record(spanRoundTrip, root, op, sl.sent, sl.recv)
				if sl.kind != 's' {
					tr.record(spanCheck, root, op, sl.recv, sl.done)
				}
			}
		}()
	}
	wg.Wait()
	end := time.Now()

	var solveLat, hitLat, missLat, sessLat, late, excess []float64
	good := 0
	for _, sl := range slots {
		lat := ms(sl.done.Sub(sl.due))
		late = append(late, ms(sl.sent.Sub(sl.due)))
		switch {
		case sl.kind == 's':
			sessLat = append(sessLat, lat)
		case sl.cached:
			hitLat = append(hitLat, lat)
		case sl.kind == 'm':
			missLat = append(missLat, lat)
		}
		if sl.kind != 's' {
			solveLat = append(solveLat, lat)
			if sl.ok && sl.done.Sub(sl.due) <= serveTimeLimit {
				good++
			}
		}
		if sl.hasExcess {
			excess = append(excess, sl.excess)
		}
	}
	v := values{}
	latencyMetrics(v, solveLat)
	// Goodput: solve requests answered correctly within the served time
	// limit of their due time, per second from the first due time to the
	// last answer. The offered rate bounds it from above.
	v["throughput_per_s"] = ratio(float64(good), end.Sub(start).Seconds())
	v["quality_loss_pct"] = mean(excess)
	s.checkSessions()
	if tr == nil {
		return v
	}

	after, err := s.scrape()
	s.chk.op(err)
	d := func(series string) float64 { return after[series] - before[series] }
	hits, misses := d("floorpland_cache_hits_total"), d("floorpland_cache_misses_total")
	v["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["server.dedup_joined"] = d("floorpland_dedup_joined_total")
	v["server.queue_rejected"] = d("floorpland_queue_rejected_total")
	v["server.hit_ms_p50"] = median(hitLat)
	solveS, solves := d(`floorpland_solve_seconds_sum{engine="exact"}`), d(`floorpland_solve_seconds_count{engine="exact"}`)
	v["server.solve_ms_mean"] = 1000 * ratio(solveS, solves)
	v["server.wait_ms_mean"] = mean(missLat) - v["server.solve_ms_mean"]
	nodes := d(`floorpland_engine_nodes_total{engine="exact"}`)
	v["exact.nodes"] = ratio(nodes, solves)
	v["exact.nodes_per_s"] = ratio(nodes, solveS)
	v["session.wal_records"] = d("floorpland_session_wal_records_total")
	v["session.snapshots"] = float64(s.snapshots() - snaps0)
	v["serve.session_req_ms_p50"] = median(sessLat)
	v["serve.session_req_ms_p99"] = percentile(sessLat, 0.99)
	v["serve.lateness_ms_p99"] = percentile(late, 0.99)
	return v
}

// solveSlot returns the sender of one solve request.
func (s *serve) solveSlot(req solveReq) func(*slot) error {
	return func(sl *slot) error {
		var resp server.SolveResponse
		err := s.post("/v1/solve", req.body, &resp)
		sl.recv = time.Now()
		if err != nil {
			return err
		}
		if s.cfg.tamper != nil && resp.Solution != nil {
			s.cfg.tamper(req.in.p, resp.Solution)
		}
		if err := checkServed(req.in.p, &resp); err != nil {
			return fmt.Errorf("%s on %s: %w", req.engine, req.in.base, err)
		}
		obj := *resp.Objective
		if err := s.chk.checkOptimum(req.in.base, obj, resp.Solution.Proven); err != nil {
			return fmt.Errorf("%s on %s: %w", req.engine, req.in.base, err)
		}
		sl.cached = resp.Cached
		if opt, ok := s.chk.optimumOf(req.in.base); ok {
			sl.excess, sl.hasExcess = excessPct(obj, opt), true
		}
		return nil
	}
}

// sessionSlot returns the sender of the session's next event batch.
func (s *serve) sessionSlot(ss *serveSession) func(*slot) error {
	if ss.next+serveBatch > len(ss.events) {
		return func(*slot) error { return fmt.Errorf("session %s: stream exhausted", ss.id) }
	}
	events := ss.events[ss.next : ss.next+serveBatch]
	ss.next += serveBatch
	body, _ := json.Marshal(server.SessionEventsRequest{Events: events})
	return func(sl *slot) error {
		var resp server.SessionEventsResponse
		err := s.post("/v1/sessions/"+ss.id+"/events", body, &resp)
		sl.recv = time.Now()
		if err != nil {
			return err
		}
		if len(resp.Results) != len(events) {
			return fmt.Errorf("session %s: %d results for %d events", ss.id, len(resp.Results), len(events))
		}
		return nil
	}
}

// checkSessions requires every session's configuration memory to be
// free of corrupted frames.
func (s *serve) checkSessions() {
	for _, ss := range s.sessions {
		var info server.SessionInfo
		err := s.get("/v1/sessions/"+ss.id, &info)
		if err == nil && info.Snapshot.Stats.CorruptedFrames != 0 {
			err = fmt.Errorf("session %s has %d corrupted frames", ss.id, info.Snapshot.Stats.CorruptedFrames)
		}
		s.chk.op(err)
	}
}

// snapshots sums the snapshot compactions of the benchmark's sessions.
func (s *serve) snapshots() int {
	total := 0
	for _, ss := range s.sessions {
		var info server.SessionInfo
		if s.chk.op(s.get("/v1/sessions/"+ss.id, &info)) {
			total += info.Snapshot.Stats.Snapshots
		}
	}
	return total
}

// scrape reads /metrics into a map keyed by series (name plus labels).
func (s *serve) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if f, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = f
		}
	}
	return out, sc.Err()
}
