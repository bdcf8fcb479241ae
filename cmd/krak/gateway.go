package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"krak/internal/gateway"
)

// runGateway starts the multi-replica resilience layer: a reverse proxy
// that routes across N `krak serve` replicas by consistent hashing of
// the canonical request keys, with health probing, bounded retries,
// per-replica circuit breakers, ring failover, and graceful degradation
// (disk-cache tier, then local quick evaluation with a Krak-Degraded
// header) when every replica for a key is down. Replicas come from
// repeated/comma-separated -replica flags or a -config file.
func runGateway(args []string) error {
	fs := flag.NewFlagSet("krak gateway", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "listen address")
	var replicaFlags stringList
	fs.Var(&replicaFlags, "replica", "replica base URL (repeatable, or comma-separated)")
	configPath := fs.String("config", "", "gateway config file (see docs/ARCHITECTURE.md, Resilience)")
	cacheDir := fs.String("cache-dir", "", "read-through response cache directory for degraded serving (empty = off)")
	quick := fs.Bool("quick", false, "replicas run -quick (keeps canonical keys and local fallback consistent)")
	noLocal := fs.Bool("no-local-fallback", false, "disable the local-evaluation degradation tier")
	retries := fs.Int("retries", -1, "extra attempts per idempotent request (-1 = config/default)")
	probeInterval := fs.Duration("probe-interval", 0, "health-check cadence per replica (0 = config/default)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive failures that open a replica's breaker (0 = config/default)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open time before a half-open probe (0 = config/default)")
	faultPlan := fs.String("fault-plan", "", "client-side fault-injection plan for chaos drills (requires -allow-faults)")
	allowFaults := fs.Bool("allow-faults", false, "acknowledge that -fault-plan deliberately breaks responses")
	fs.Parse(args)

	cfg := gateway.DefaultConfig()
	if *configPath != "" {
		src, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		if cfg, err = gateway.ParseGatewayConfig(src); err != nil {
			return err
		}
	}
	cfg.Replicas = append(cfg.Replicas, replicaFlags...)
	if *cacheDir != "" {
		cfg.CacheDir = *cacheDir
	}
	if *quick {
		cfg.Quick = true
	}
	if *noLocal {
		cfg.LocalFallback = false
	}
	if *retries >= 0 {
		cfg.Retries = *retries
	}
	if *probeInterval > 0 {
		cfg.ProbeInterval = *probeInterval
	}
	if *breakerThreshold > 0 {
		cfg.BreakerThreshold = *breakerThreshold
	}
	if *breakerCooldown > 0 {
		cfg.BreakerCooldown = *breakerCooldown
	}

	faults, err := loadFaultPlan(*faultPlan, *allowFaults)
	if err != nil {
		return err
	}
	g, err := gateway.New(cfg, faults)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	g.Start(ctx)
	defer g.Close()

	srv := newHTTPServer(*addr, g)
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "krak gateway listening on %s, %d replicas\n", *addr, len(cfg.Replicas))
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "krak gateway: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// stringList collects a repeatable flag, splitting comma-separated
// values, so both `-replica a -replica b` and `-replica a,b` work.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			*s = append(*s, part)
		}
	}
	return nil
}
