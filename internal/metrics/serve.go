package metrics

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
)

// Handler returns an http.Handler exposing the standard Go debug
// surface plus the registry:
//
//	/debug/pprof/...   net/http/pprof profiles (heap, cpu, goroutine, …)
//	/debug/vars        expvar JSON (includes registries passed to Publish)
//	/debug/metrics     the registry snapshot as JSON Lines
//
// The handler serves live data: every request re-snapshots r, so a
// long campaign can be watched while it runs. The three CLIs mount
// this handler through ServeDebug when given the -pprof flag.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		_ = r.Snapshot().WriteJSONL(w)
	})
	return mux
}

// ServeDebug listens on addr and serves Handler(r) there in the
// background for the rest of the process. It returns the bound
// address, which differs from addr when addr asks for port 0.
func ServeDebug(addr string, r *Registry) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = http.Serve(ln, Handler(r)) }()
	return ln.Addr(), nil
}

// WriteFile writes the snapshot to path as JSON Lines, replacing any
// file there: the commands' -metrics-out format.
func (s Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var publishMu sync.Mutex
var published = map[string]bool{}

// Publish exposes the registry under name in the process-global expvar
// map, so GET /debug/vars includes a live snapshot of it. Unlike
// expvar.Publish, calling Publish twice with the same name is safe:
// the second call is ignored (expvar registrations are process-global
// and cannot be replaced).
func Publish(name string, r *Registry) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if published[name] {
		return
	}
	published[name] = true
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
