package metrics

import (
	"net"
	"net/http"
)

// NewServeMux returns a mux exposing reg over HTTP:
//
//	/metrics   Prometheus text exposition (WriteTo)
//	/vars      all metrics as one JSON object (WriteJSON)
//
// Callers may register further endpoints on it.
func NewServeMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = reg.WriteTo(w)
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	return mux
}

// Serve starts an HTTP server for h on addr (e.g. "127.0.0.1:0"). It
// returns the bound address and a function that stops the server.
func Serve(addr string, h http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
