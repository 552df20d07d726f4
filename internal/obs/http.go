package obs

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"time"
)

// WithTrace is the trace middleware of oicd and oicd-router. It adopts the
// caller's X-Oic-Trace-Id (oicd-router mints one for cluster traffic and
// forwards it to the shard) or mints one for direct hits, stamps it on the
// response header, attaches it to the request context, and logs request
// completion with it, so one trace ID correlates router and shard logs.
func WithTrace(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(TraceHeader)
		if id == "" {
			id = NewTraceID()
		}
		w.Header().Set(TraceHeader, id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(WithTraceID(r.Context(), id)))
		log.Debug("request",
			"method", r.Method, "path", r.URL.Path,
			"status", sw.status, "elapsed", time.Since(start), "trace_id", id)
	})
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP serves GET /v1/debug/ops: the retained spans, newest first, as
// {"spans": [...]}.
func (r *SpanRing) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(map[string]any{"spans": r.Snapshot()})
}
