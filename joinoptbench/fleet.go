package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/durable"
	"joinopt/internal/obs"
	"joinopt/internal/service"
)

// replica is one in-process joinoptd: a service on a loopback listener,
// optionally with cluster membership and a durable store of its own.
type replica struct {
	name  string
	url   string
	svc   *service.Service
	srv   *http.Server
	ln    net.Listener
	serve chan error
	cl    *cluster.Cluster
	store *durable.Store
	dir   string
}

// fleetOpts shapes a fleet: how many replicas, workers per replica,
// whether each gets a durable store, and how many finished jobs each keeps.
type fleetOpts struct {
	replicas int
	workers  int
	durable  bool
	maxJobs  int
	stateDir string // parent of the durable stores
}

type fleet struct {
	reps []*replica
}

// bootFleet starts the replicas. With more than one replica they form a
// cluster over their loopback URLs. On error everything started so far is
// torn down.
func bootFleet(o fleetOpts) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	for i := 0; i < o.replicas; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return f, err
		}
		f.reps = append(f.reps, &replica{ln: ln, url: "http://" + ln.Addr().String()})
	}
	var urls []string
	for _, r := range f.reps {
		urls = append(urls, r.url)
	}
	for _, r := range f.reps {
		m := obs.NewRegistry()
		opts := service.Options{
			Workers:     o.workers,
			QueueDepth:  256,
			TenantQuota: -1,
			MaxJobs:     o.maxJobs,
			Metrics:     m,
		}
		if o.durable {
			if err := os.MkdirAll(o.stateDir, 0o755); err != nil {
				return f, err
			}
			if r.dir, err = os.MkdirTemp(o.stateDir, "replica-"); err != nil {
				return f, err
			}
			store, rec, err := durable.Open(r.dir, durable.Options{Metrics: m})
			if err != nil {
				return f, err
			}
			r.store = store
			opts.Durable, opts.Recovered = store, rec
		}
		if o.replicas > 1 {
			cfg := cluster.Config{Self: r.url, Peers: urls, ProbeInterval: time.Second, ProbeTimeout: 2 * time.Second}
			if r.cl, err = cluster.New(cfg, m, nil); err != nil {
				return f, err
			}
			opts.Cluster = r.cl
			r.name = r.cl.SelfName()
		}
		r.svc = service.New(opts)
		r.srv = &http.Server{Handler: r.svc.Handler()}
		r.serve = make(chan error, 1)
		go func(r *replica) { r.serve <- r.srv.Serve(r.ln) }(r)
		if r.cl != nil {
			r.cl.Start()
		}
	}
	return f, nil
}

// replicaFor returns the replica that owns a request's workload.
func (f *fleet) replicaFor(req service.JobRequest) *replica {
	c := f.reps[0].cl
	if c == nil {
		return f.reps[0]
	}
	name, _ := c.Owner(service.CanonicalWorkloadKey(req))
	for _, r := range f.reps {
		if r.name == name {
			return r
		}
	}
	return f.reps[0]
}

// close drains every service, stops every cluster's probe loop, closes
// every listener and server, closes every durable store and removes its
// directory. It is safe on a partly booted fleet and returns every error
// met, joined.
func (f *fleet) close() error {
	if f == nil {
		return nil
	}
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, r := range f.reps {
		if r.svc != nil {
			r.svc.Drain(ctx)
		}
	}
	for _, r := range f.reps {
		if r.cl != nil {
			r.cl.Stop()
		}
	}
	for _, r := range f.reps {
		if r.srv != nil {
			if err := r.srv.Shutdown(ctx); err != nil {
				errs = append(errs, err)
			}
			if err := <-r.serve; err != nil && !errors.Is(err, http.ErrServerClosed) {
				errs = append(errs, err)
			}
		} else if r.ln != nil {
			r.ln.Close()
		}
		if r.cl != nil {
			r.cl.Client().CloseIdleConnections()
		}
		if r.store != nil {
			if err := r.store.Close(); err != nil {
				errs = append(errs, err)
			}
		}
		if r.dir != "" {
			if err := os.RemoveAll(r.dir); err != nil {
				errs = append(errs, err)
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("tearing down the fleet: %w", err)
	}
	return nil
}
