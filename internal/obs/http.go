package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Handler builds the live ops endpoint served on `dharma-node serve
// -debug-addr`:
//
//	/metrics        Prometheus text exposition of reg
//	/debug/traces   JSON from traces() (recent slow lookup traces)
//	/debug/pprof/*  the standard runtime profiles
//
// Every counter a peer keeps, Table I's block operations included, is a
// /metrics series. traces may be nil; its route then answers 404. pprof
// is wired explicitly rather than via the net/http/pprof side-effect
// import so nothing leaks onto http.DefaultServeMux.
func Handler(reg *Registry, traces func() any) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	if traces != nil {
		mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
			serveJSON(w, traces())
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func serveJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
