package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"path"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"dynamicrumor/internal/cluster"
	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/faults"
	"dynamicrumor/internal/obs"
	"dynamicrumor/internal/service"
)

// The deployments mirror cmd/rumord's wiring and flag defaults (lease TTL
// 15 s, poll 500 ms, automatic shard size, queue 256), sized for a 2-CPU
// machine and fixed so numbers compare across machines.
const (
	serviceBudget  = 2
	queueLimit     = 256
	durableCache   = 64 // rumord -cache 64
	leaseTTL       = 15 * time.Second
	pollInterval   = 500 * time.Millisecond
	clusterWorkers = 2
	workerCPUs     = 1
)

type deployKind int

const (
	deployPlain deployKind = iota
	deployDurable
	deployCluster
)

// spanHeader carries the client's request span ID to the server, so a
// handler span can name the client span that caused it.
const spanHeader = "X-Bench-Span"

// httpDeployment is a service on a loopback listener, with the cluster
// coordinator and its in-process workers in cluster mode.
type httpDeployment struct {
	base   string
	svc    *service.Service
	coord  *cluster.Coordinator
	srv    *http.Server
	served chan error

	workersStop context.CancelFunc
	workersDone sync.WaitGroup

	// Present in traced runs only.
	backend   *timedBackend
	transport *timedTransport
}

// startDeployment starts one deployment. dir is its state directory (used
// only by the durable kind). In a traced run the service handler, the
// backend and the workers' HTTP transport are wrapped in timing layers that
// record spans; untraced runs use the program's own wiring unchanged.
func startDeployment(kind deployKind, dir string, tr *tracer) (*httpDeployment, error) {
	reg := obs.NewRegistry()
	cfg := service.Config{
		Budget:     serviceBudget,
		QueueLimit: queueLimit,
		Observe:    reg,
	}
	if kind == deployDurable {
		cfg.StateDir = dir
		cfg.CacheDir = filepath.Join(dir, "cache")
		cfg.CacheLimit = durableCache
	}
	d := &httpDeployment{served: make(chan error, 1)}
	if kind == deployCluster {
		coord, err := cluster.New(cluster.Config{
			LeaseTTL:     leaseTTL,
			PollInterval: pollInterval,
			Observe:      reg,
		})
		if err != nil {
			return nil, err
		}
		d.coord = coord
		cfg.Backend = coord
	}
	if tr != nil {
		d.backend = &timedBackend{inner: cfg.Backend, tr: tr, sets: make(map[*engine.CompileSet]int)}
		if d.backend.inner == nil {
			d.backend.inner = service.LocalBackend{}
		}
		cfg.Backend = d.backend
		if d.coord != nil {
			cfg.Backend = timedClusterBackend{timedBackend: d.backend, coord: d.coord}
		}
	}
	svc, err := service.New(cfg)
	if err != nil {
		if d.coord != nil {
			d.coord.Close()
		}
		return nil, err
	}
	d.svc = svc
	mux := http.NewServeMux()
	var handler http.Handler = svc.Handler()
	if tr != nil {
		handler = timedHandler(handler, tr)
	}
	mux.Handle("/", handler)
	if d.coord != nil {
		d.coord.RetainRecovered(svc.RecoveredKeys())
		plan, err := faults.ParsePlan("")
		if err != nil {
			d.close()
			return nil, err
		}
		inner := http.NewServeMux()
		d.coord.Mount(inner)
		mux.Handle("/v1/cluster/", faults.New(plan).Wrap(inner))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: mux}
	go func() { d.served <- d.srv.Serve(ln) }()
	if d.coord != nil {
		if err := d.startWorkers(tr); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// startWorkers joins the in-process workers and waits until the coordinator
// has registered all of them.
func (d *httpDeployment) startWorkers(tr *tracer) error {
	ctx, cancel := context.WithCancel(context.Background())
	d.workersStop = cancel
	if tr != nil {
		d.transport = &timedTransport{
			inner:  http.DefaultTransport,
			tr:     tr,
			leases: make(map[string]grantedLease),
		}
	}
	for i := 0; i < clusterWorkers; i++ {
		wc := cluster.WorkerConfig{
			Coordinator: d.base,
			Name:        "bench-worker-" + strconv.Itoa(i),
			CPUs:        workerCPUs,
		}
		if d.transport != nil {
			wc.Client = &http.Client{Timeout: 30 * time.Second, Transport: d.transport}
		}
		w := cluster.NewWorker(wc)
		d.workersDone.Add(1)
		go func() {
			defer d.workersDone.Done()
			_ = w.Run(ctx) // returns ctx.Err() once the deployment closes
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.coord.ClusterStats().Workers < clusterWorkers {
		if time.Now().After(deadline) {
			return errors.New("cluster workers did not register within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close stops the workers, the listener, the service and the coordinator, in
// that order, and waits for each.
func (d *httpDeployment) close() {
	if d.workersStop != nil {
		d.workersStop()
		d.workersDone.Wait()
	}
	if d.srv != nil {
		// Every client operation has returned by now, so closing the
		// connections at once loses nothing; a graceful Shutdown would wait
		// 5 s for a connection a client had dialled but never used.
		d.srv.Close()
		<-d.served
	}
	if d.svc != nil {
		d.svc.Close()
	}
	if d.coord != nil {
		d.coord.Close()
	}
}

// timedHandler records an http.handler span around every request the
// service serves, parented to the client span named in spanHeader.
func timedHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r)
		tr.add("http.handler", parent, "", start, time.Now())
	})
}

// timedBackend records a service.backend span around every Backend.Run and
// remembers each sweep's compile set, so the run can report how many cells
// shared one built network.
type timedBackend struct {
	inner service.Backend
	tr    *tracer

	mu   sync.Mutex
	sets map[*engine.CompileSet]int // compile set -> cells run through it
}

func (b *timedBackend) Run(ctx context.Context, run service.BackendRun) (service.BackendResult, error) {
	if run.Compile != nil {
		b.mu.Lock()
		b.sets[run.Compile]++
		b.mu.Unlock()
	}
	start := time.Now()
	res, err := b.inner.Run(ctx, run)
	end := time.Now()
	b.tr.add("service.backend", 0, run.Key, start, end)
	if run.Trace != nil {
		// The cluster layer's spans are keyed by the job's trace ID.
		b.tr.add("service.backend_settled", 0, run.Trace.ID(), end, end)
	}
	return res, err
}

// compileShare is the number of sweep cells per network their compile sets
// built.
func (b *timedBackend) compileShare() (cells, networks int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for set, n := range b.sets {
		cells += n
		networks += set.Networks()
	}
	return cells, networks
}

// timedClusterBackend is timedBackend over the cluster coordinator. It
// forwards Ready and ClusterStats, which the service discovers by interface
// assertion: without them the wrapper would change the program it measures
// (no 503 while workers are missing, no cluster block in /metrics).
type timedClusterBackend struct {
	*timedBackend
	coord *cluster.Coordinator
}

func (b timedClusterBackend) Ready() error                       { return b.coord.Ready() }
func (b timedClusterBackend) ClusterStats() service.ClusterStats { return b.coord.ClusterStats() }

// timedTransport is the workers' HTTP transport in a traced run. It records
// a span per protocol call (cluster.register, .lease, .heartbeat, .upload),
// counts empty lease replies and uploaded bytes, and records a cluster.shard
// span from each lease reply to the upload of the same lease.
type timedTransport struct {
	inner http.RoundTripper
	tr    *tracer

	mu     sync.Mutex
	leases map[string]grantedLease // lease ID -> grant
}

type grantedLease struct {
	at    time.Time
	trace string
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	call := path.Base(req.URL.Path)
	if call == "result" {
		call = "upload"
	}
	var upload struct {
		LeaseID string `json:"lease_id"`
	}
	if call == "upload" && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		_ = json.Unmarshal(body, &upload) // a malformed body is the coordinator's to reject
		t.tr.count("cluster.upload_bytes", float64(len(body)))
		clone := req.Clone(req.Context())
		clone.Body = io.NopCloser(bytes.NewReader(body))
		clone.ContentLength = int64(len(body))
		req = clone
	}
	trace := req.Header.Get(obs.TraceHeader)
	start := time.Now()
	if upload.LeaseID != "" {
		t.mu.Lock()
		g, ok := t.leases[upload.LeaseID]
		delete(t.leases, upload.LeaseID)
		t.mu.Unlock()
		if ok {
			t.tr.add("cluster.shard", 0, g.trace, g.at, start)
		}
	}
	resp, err := t.inner.RoundTrip(req)
	if err == nil && call == "lease" {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var lr cluster.LeaseResponse
		if json.Unmarshal(body, &lr) == nil && lr.Lease != nil {
			t.mu.Lock()
			t.leases[lr.Lease.ID] = grantedLease{at: time.Now(), trace: lr.Lease.Trace}
			t.mu.Unlock()
			t.tr.count("cluster.lease_granted", 1)
		} else {
			t.tr.count("cluster.lease_empty", 1)
		}
	}
	t.tr.add("cluster."+call, 0, trace, start, time.Now())
	return resp, err
}
