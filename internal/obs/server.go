package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"gravel/internal/buildinfo"
	"gravel/internal/rt"
)

// Server is the live observability endpoint: Prometheus-style text
// metrics on /metrics and a liveness probe on /healthz wired to the
// transport failure detectors. Other subsystems share it — Handle
// mounts additional routes on the same listener, which is how
// gravel-server serves its job API alongside /metrics and /healthz.
type Server struct {
	ln     net.Listener
	srv    *http.Server
	mux    *http.ServeMux
	health func() error
	stats  func() *rt.Stats

	extraMu sync.Mutex
	extra   []func(io.Writer)

	mu   sync.Mutex
	done chan struct{}
}

// NewServer starts an HTTP server on addr (":0" picks a free port).
// health, if non-nil, backs /healthz: nil error → 200 "ok", otherwise
// 503 with the error text. stats, if non-nil, is sampled on every
// /metrics scrape and rendered alongside the recorder's own counters
// and histograms.
func NewServer(addr string, health func() error, statsFn func() *rt.Stats) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{ln: sndbufListener{ln}, health: health, stats: statsFn, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux = mux
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		s.srv.Serve(s.ln)
		close(s.done)
	}()
	return s, nil
}

// sndbufListener caps each accepted connection's kernel send buffer.
// Without the cap, TCP autotuning lets a client that stops reading (a
// hung /events stream, a stalled scraper) absorb megabytes of buffered
// writes before the server's write deadline can ever trip; bounding the
// buffer bounds both that memory and the time to evict the client.
type sndbufListener struct{ net.Listener }

func (l sndbufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(32 << 10)
	}
	return c, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handle mounts an additional route on the server's mux. Register
// everything before traffic arrives (ServeMux registration is not
// synchronized with serving).
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// AppendMetrics registers fn to run on every /metrics scrape, after
// the recorder and runtime-stats sections. Subsystems sharing the
// listener (gravel-server's job queue, for one) export their own
// Prometheus-style counters this way.
func (s *Server) AppendMetrics(fn func(w io.Writer)) {
	s.extraMu.Lock()
	defer s.extraMu.Unlock()
	s.extra = append(s.extra, fn)
}

// Close shuts the server down.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.srv.Close()
	<-s.done
	return err
}

// healthzDoc is the /healthz payload. Build lets an operator verify
// what a long-lived server is actually running.
type healthzDoc struct {
	Status string `json:"status"`
	Err    string `json:"err,omitempty"`
	Build  string `json:"build"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	doc := healthzDoc{Status: "ok", Build: buildinfo.String()}
	code := http.StatusOK
	if s.health != nil {
		if err := s.health(); err != nil {
			doc.Status = "unhealthy"
			doc.Err = err.Error()
			code = http.StatusServiceUnavailable
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	if r := Active(); r != nil {
		writeRecorderMetrics(&b, r)
	}
	if s.stats != nil {
		if st := s.stats(); st != nil {
			writeStatsMetrics(&b, st)
		}
	}
	s.extraMu.Lock()
	extra := append([]func(io.Writer){}, s.extra...)
	s.extraMu.Unlock()
	for _, fn := range extra {
		fn(&b)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

func writeRecorderMetrics(b *strings.Builder, r *Recorder) {
	fmt.Fprintf(b, "# HELP gravel_trace_events_total Trace events emitted, by kind.\n")
	fmt.Fprintf(b, "# TYPE gravel_trace_events_total counter\n")
	for k := Kind(1); int(k) < len(kindNames); k++ {
		fmt.Fprintf(b, "gravel_trace_events_total{kind=%q} %d\n", k.String(), r.Count(k))
	}
	writeHist(b, "gravel_queue_reserve_wait_ns", "Producer reserve wait (ns).", r.QueueWait())
	writeHist(b, "gravel_flush_rtt_ns", "Transport flush to ack round trip (ns).", r.FlushRTT())
	writeHist(b, "gravel_step_wall_ns", "Kernel step wall time (ns).", r.StepWall())
}

// writeHist renders a SizeHist (power-of-two buckets, per-bucket
// counts) as a Prometheus cumulative histogram.
func writeHist(b *strings.Builder, name, help string, h *SizeHist) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := int64(0)
	for _, bc := range h.Buckets() {
		cum += bc.N
		// Bucket Lo=1<<i holds values in [Lo, 2*Lo) (the first also
		// holds 0), so 2*Lo is the inclusive Prometheus "le" edge.
		fmt.Fprintf(b, "%s_bucket{le=\"%d\"} %d\n", name, bc.Lo*2, cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	fmt.Fprintf(b, "%s_sum %d\n", name, h.Sum())
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
}

func writeStatsMetrics(b *strings.Builder, st *rt.Stats) {
	g := func(name, help string, v float64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	c := func(name, help string, v int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	g("gravel_virtual_time_ns", "Total virtual time across steps (ns).", st.VirtualNs)
	c("gravel_steps_total", "Recorded kernel steps.", int64(st.Earlier.Index+len(st.Steps)))
	c("gravel_queue_local_ops_total", "Fine-grain accesses to local memory.", st.Queue.LocalOps)
	c("gravel_queue_remote_ops_total", "Fine-grain accesses offloaded to the queue.", st.Queue.RemoteOps)
	c("gravel_queue_slots_drained_total", "Queue slots drained by the aggregator.", st.Queue.SlotsDrained)
	c("gravel_queue_msgs_drained_total", "Messages drained from the queue.", st.Queue.MsgsDrained)
	g("gravel_agg_busy_frac", "Capacity-weighted aggregator busy fraction.", st.Agg.BusyFrac)
	c("gravel_agg_flushes_full_total", "Per-node queue flushes triggered by a full buffer.", st.Agg.FlushesFull)
	c("gravel_agg_flushes_timeout_total", "Per-node queue flushes forced at end of step.", st.Agg.FlushesTimeout)
	g("gravel_resolver_shards", "Resolver banks per node (1 = the serial network thread).", float64(st.Resolver.Shards))
	c("gravel_resolver_packets_total", "Packets applied by resolver banks.", st.Resolver.Packets)
	c("gravel_resolver_msgs_total", "Messages applied by resolver banks.", st.Resolver.Msgs)
	c("gravel_resolver_ams_total", "Active messages executed by resolver banks.", st.Resolver.AMs)
	c("gravel_resolver_bypass_packets_total", "Node-local packets resolved on the sending goroutine.", st.Resolver.BypassPackets)
	c("gravel_resolver_bypass_msgs_total", "Messages resolved via the node-local bypass.", st.Resolver.BypassMsgs)
	if len(st.Resolver.PerBank) > 1 {
		fmt.Fprintf(b, "# HELP gravel_resolver_bank_msgs_total Messages applied, by resolver bank.\n")
		fmt.Fprintf(b, "# TYPE gravel_resolver_bank_msgs_total counter\n")
		for bank, bc := range st.Resolver.PerBank {
			fmt.Fprintf(b, "gravel_resolver_bank_msgs_total{bank=\"%d\"} %d\n", bank, bc.Msgs)
		}
	}
	c("gravel_wire_packets_total", "Aggregated packets sent on the wire.", st.Transport.WirePackets)
	c("gravel_wire_bytes_total", "Bytes sent on the wire.", st.Transport.WireBytes)
	c("gravel_self_packets_total", "Node-local packets (never on the wire).", st.Transport.SelfPackets)
	c("gravel_transport_reconnects_total", "Transport reconnects.", st.Transport.Reconnects)
	c("gravel_transport_retries_total", "Transport dial retries.", st.Transport.Retries)
	c("gravel_transport_malformed_total", "Malformed frames dropped.", st.Transport.Malformed)
	c("gravel_transport_corrupt_frames_total", "Corrupt frames recovered by retransmission.", st.Transport.CorruptFrames)
	if st.Faults.Enabled {
		c("gravel_faults_injected_total", "Injected faults, all kinds.", st.Faults.Total())
	}
}
