package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"krak/internal/gateway"
	"krak/internal/server"
)

// numReplicas is how many `krak serve` replicas sit behind the gateway.
const numReplicas = 2

// stack is the serving system under test, hosted in this process: one
// gateway in front of numReplicas replicas, all in quick mode, each on a
// fixed loopback address. The gateway's ring hashes replica URLs, so
// fixed addresses make the key → replica assignment repeat from run to
// run.
type stack struct {
	replicas   []*server.Server
	gw         *gateway.Gateway
	gatewayURL string
	replicaURL []string

	https  []*http.Server
	serves sync.WaitGroup
	cancel context.CancelFunc
	admin  *http.Client
}

// startStack listens on portBase (gateway) and the next numReplicas
// ports (replicas) of 127.0.0.1 and returns once every listener is up.
// Handlers are wrapped so rec sees each request at the gateway and at
// the replica that served it.
func startStack(portBase int, rec *recorder) (*stack, error) {
	st := &stack{admin: &http.Client{Timeout: 10 * time.Second}}
	for i := 0; i < numReplicas; i++ {
		srv, err := server.New(server.Config{Quick: true})
		if err != nil {
			st.close()
			return nil, err
		}
		st.replicas = append(st.replicas, srv)
		url, err := st.listen(portBase+1+i, &replicaHandler{idx: i, next: srv, rec: rec})
		if err != nil {
			st.close()
			return nil, err
		}
		st.replicaURL = append(st.replicaURL, url)
	}
	cfg := gateway.DefaultConfig()
	cfg.Replicas = st.replicaURL
	cfg.Quick = true
	gw, err := gateway.New(cfg, nil)
	if err != nil {
		st.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	gw.Start(ctx)
	st.gw, st.cancel = gw, cancel
	if st.gatewayURL, err = st.listen(portBase, &gatewayHandler{next: gw, rec: rec}); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) listen(port int, h http.Handler) (string, error) {
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("listening on the fixed address %s: %w", addr, err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.https = append(st.https, hs)
	st.serves.Add(1)
	go func() {
		defer st.serves.Done()
		hs.Serve(ln)
	}()
	return "http://" + addr, nil
}

// close shuts the listeners down, then the gateway's probes and the
// replicas' background machinery, and returns once all have stopped.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range st.https {
		hs.Shutdown(ctx)
	}
	st.serves.Wait()
	if st.cancel != nil {
		st.cancel()
		st.gw.Close()
	}
	for _, srv := range st.replicas {
		srv.Close()
	}
	st.admin.CloseIdleConnections()
}

// waitHealthy polls every replica's and the gateway's /healthz until all
// answer 200 and the gateway counts every replica healthy.
func (st *stack) waitHealthy(ctx context.Context) error {
	urls := append([]string{st.gatewayURL}, st.replicaURL...)
	for _, u := range urls {
		for {
			body, err := st.get(ctx, u+"/healthz")
			if err == nil && (u != st.gatewayURL ||
				bytes.Contains(body, []byte(fmt.Sprintf(`"replicas_healthy": %d`, numReplicas)))) {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s not healthy: %v", u, err)
			case <-time.After(time.Millisecond):
			}
		}
	}
	return nil
}

func (st *stack) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := st.admin.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// warm sends each request to base directly (no rid, so nothing records
// it) and checks that it succeeded.
func (st *stack) warm(ctx context.Context, base string, reqs []request) error {
	for _, req := range reqs {
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+req.op.path(), bytes.NewReader(req.body))
		if err != nil {
			return err
		}
		resp, err := st.admin.Do(hr)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", req.key, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d", req.key, resp.StatusCode)
		}
	}
	return nil
}

// counters is one scrape of a /metrics page: each family's value, summed
// over its labeled series. Histogram families are skipped.
type counters map[string]float64

func (st *stack) scrape(ctx context.Context, url string) (counters, error) {
	body, err := st.get(ctx, url+"/metrics")
	if err != nil {
		return nil, err
	}
	c := counters{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %q: %w", url, line, err)
		}
		c[name] += v
	}
	return c, sc.Err()
}

// scrapeReplicas sums the replicas' counters.
func (st *stack) scrapeReplicas(ctx context.Context) (counters, error) {
	sum := counters{}
	for _, u := range st.replicaURL {
		c, err := st.scrape(ctx, u)
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			sum[k] += v
		}
	}
	return sum, nil
}

func (c counters) sub(prev counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - prev[k]
	}
	return d
}

// ridOf parses the rid query parameter the generator puts on every timed
// request; ok is false for warm-up and health traffic.
func ridOf(r *http.Request) (int64, bool) {
	q, found := strings.CutPrefix(r.URL.RawQuery, "rid=")
	if !found {
		return 0, false
	}
	rid, err := strconv.ParseInt(q, 10, 64)
	return rid, err == nil
}

// gatewayHandler times Gateway.ServeHTTP from outside.
type gatewayHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *gatewayHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid, ok := ridOf(r)
	if !ok || !h.rec.trace.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.rec.gateway(rid, start, time.Now())
}

// replicaHandler times Server.ServeHTTP from outside and records which
// replica served each request.
type replicaHandler struct {
	idx  int
	next http.Handler
	rec  *recorder
}

func (h *replicaHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid, ok := ridOf(r)
	if !ok {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.rec.server(rid, h.idx, start, time.Now())
}
