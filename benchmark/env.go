package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"sprinklers/internal/cluster"
	"sprinklers/internal/experiment"
	"sprinklers/internal/resultcache"
	"sprinklers/internal/service"
)

// env is what one round's set-up leaves behind: a place studies run.
type env interface {
	// run executes one study through the product's entry point.
	run(ctx context.Context, spec experiment.Spec) ([]experiment.PointResult, error)
	// tidy runs after a study's timed window (drops its checkpoint file).
	tidy()
	// counters sums the work counters of every node of the environment.
	counters() experiment.CounterSnapshot
	close() error
}

// localEnv runs studies in-process with experiment.RunStudy; with a store
// each study also gets the result cache and a fresh JSONL checkpoint.
type localEnv struct {
	dir   string
	store *resultcache.Store
	par   int
	ctr   experiment.Counters
	n     int
	// decorate, set by the traced pass, adds its timing hooks to a study's
	// configuration.
	decorate  func(*experiment.StudyConfig)
	ckpt      string
	ckptBytes int64 // size of the last study's checkpoint
}

func (e *localEnv) run(ctx context.Context, spec experiment.Spec) ([]experiment.PointResult, error) {
	cfg := experiment.StudyConfig{Parallelism: e.par, Counters: &e.ctr}
	if e.store != nil {
		e.n++
		e.ckpt = filepath.Join(e.dir, fmt.Sprintf("study-%d.jsonl", e.n))
		cfg.Cache = e.store
		cfg.ResultsPath = e.ckpt
	}
	if e.decorate != nil {
		e.decorate(&cfg)
	}
	return experiment.RunStudy(ctx, spec, cfg)
}

func (e *localEnv) tidy() {
	if e.ckpt == "" {
		return
	}
	if fi, err := os.Stat(e.ckpt); err == nil {
		e.ckptBytes = fi.Size()
	}
	os.Remove(e.ckpt) //nolint:errcheck // the round's directory is removed anyway
	e.ckpt = ""
}

func (e *localEnv) counters() experiment.CounterSnapshot { return e.ctr.Snapshot() }
func (e *localEnv) close() error                         { return nil }

// fleetEnv is one daemon, or a coordinator with workers, each behind an
// in-process httptest server, and the client that submits to it.
type fleetEnv struct {
	client  *service.Client
	nodes   []*service.Server
	servers []*httptest.Server
	stop    context.CancelFunc // the coordinator's health loop
	// afterStudy, set by the traced pass, runs after a study's timed window.
	afterStudy func()
}

// fleetOpts are the traced pass's additions to a fleet; the zero value is
// the product's defaults.
type fleetOpts struct {
	traceSpans int // service.Options.TraceSpans
	// wrap puts a middleware around a node's handler.
	wrap func(node string, h http.Handler) http.Handler
}

// startFleet starts workers worker daemons (one job slot each) and the
// daemon the client talks to, a coordinator over them when there are any.
func startFleet(dir string, workers, par int, o fleetOpts) (f *fleetEnv, err error) {
	f = &fleetEnv{}
	defer func() {
		if err != nil {
			f.close() //nolint:errcheck // the set-up error is the one to report
		}
	}()
	serve := func(node string, opts service.Options) (string, error) {
		opts.CacheDir = filepath.Join(dir, node)
		opts.Node = node
		opts.TraceSpans = o.traceSpans
		srv, err := service.New(opts)
		if err != nil {
			return "", err
		}
		h := srv.Handler()
		if o.wrap != nil {
			h = o.wrap(node, h)
		}
		ts := httptest.NewServer(h)
		f.nodes = append(f.nodes, srv)
		f.servers = append(f.servers, ts)
		return ts.URL, nil
	}
	front := service.Options{Parallelism: par}
	if workers > 0 {
		urls := make([]string, workers)
		for i := range urls {
			if urls[i], err = serve(fmt.Sprintf("w%d", i+1), service.Options{JobSlots: 1}); err != nil {
				return f, err
			}
		}
		// cluster.New's defaults: stealing and speculation off.
		front.Cluster = cluster.New(cluster.Options{Workers: urls})
		ctx, cancel := context.WithCancel(context.Background())
		f.stop = cancel
		front.Cluster.Start(ctx)
	}
	url, err := serve("coord", front)
	if err != nil {
		return f, err
	}
	f.client = &service.Client{BaseURL: url}
	return f, nil
}

func (f *fleetEnv) run(ctx context.Context, spec experiment.Spec) ([]experiment.PointResult, error) {
	return f.client.Run(ctx, spec, nil)
}

func (f *fleetEnv) tidy() {
	if f.afterStudy != nil {
		f.afterStudy()
	}
}

func (f *fleetEnv) counters() experiment.CounterSnapshot {
	var total experiment.CounterSnapshot
	for _, n := range f.nodes {
		total = total.Add(n.TotalCounters())
	}
	return total
}

// close stops every server and waits for it: the front daemon first, so no
// dispatch is in flight when the workers go.
func (f *fleetEnv) close() error {
	if f.stop != nil {
		f.stop()
	}
	var first error
	for i := len(f.nodes) - 1; i >= 0; i-- {
		f.servers[i].Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := f.nodes[i].Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
	}
	// Client, coordinator and workers all use the default transport.
	http.DefaultClient.CloseIdleConnections()
	return first
}

// round is one set-up of a workload's environment.
type round struct {
	env env
	// fill holds, for grid-warm, the cold results that filled the cache.
	fill [][]experiment.PointResult
}

// setupRound builds the workload's environment under dir, runs the untimed
// warm-up study and, for grid-warm, the pass that fills the cache. All of
// it is set-up time.
func setupRound(ctx context.Context, w workload, dir string, specs []experiment.Spec, par int, o fleetOpts) (r *round, err error) {
	var e env
	switch w.kind {
	case kindEngine:
		e = &localEnv{par: par}
	case kindCold, kindWarm:
		store, err := resultcache.Open(filepath.Join(dir, "cache"))
		if err != nil {
			return nil, err
		}
		e = &localEnv{dir: dir, store: store, par: par}
	case kindRemote:
		e, err = startFleet(dir, 0, par, o)
	case kindCluster:
		e, err = startFleet(dir, 2, par, o)
	}
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			e.close() //nolint:errcheck // the set-up error is the one to report
		}
	}()
	if _, err := e.run(ctx, warmupSpec(specs[0])); err != nil {
		return nil, fmt.Errorf("warm-up study: %w", err)
	}
	e.tidy()
	r = &round{env: e}
	if w.kind == kindWarm {
		for _, s := range specs {
			res, err := e.run(ctx, s)
			if err != nil {
				return nil, fmt.Errorf("filling the cache: %w", err)
			}
			e.tidy()
			r.fill = append(r.fill, res)
		}
	}
	return r, nil
}
