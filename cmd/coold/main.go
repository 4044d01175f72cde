// Command coold is the planner-as-a-service daemon: it owns
// deployments as immutable fingerprinted snapshots (registry →
// normalizer → admission) and serves plan/replan/query traffic over
// the versioned length-prefixed wire protocol of
// internal/controlplane. The replan path runs the incremental
// Repairer, so a perturbation costs O(perturbation), not O(fleet).
//
//	coold -addr 127.0.0.1:7946 -jobs 8 -max-sensors 100000 -data-dir /var/lib/coold
//
// With -data-dir the daemon is durable: every admission event is
// appended to a CRC-guarded write-ahead log (synced before the client
// is answered), and the log is the state, so a restart replays
// registry → normalizer → admission to a state bit-identical to the
// daemon that never stopped. A data dir holding a checkpoint from an
// earlier build recovers too: the checkpoint is loaded read-only and
// new records append after its log. Without the flag, state is
// in-memory as before.
//
// Serving state changes without redeploy: suspend/resume/reset a
// deployment or reconfigure admission limits through control
// requests. SIGINT/SIGTERM stop the daemon gracefully, closing the
// log when a data dir is attached.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cool/internal/controlplane"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "coold:", err)
		os.Exit(1)
	}
}

// run parses flags, binds the listener and serves until a termination
// signal (or until the test harness calls the stop function handed to
// ready; main passes ready = nil).
func run(args []string, out io.Writer, ready func(addr string, stop func())) error {
	fs := flag.NewFlagSet("coold", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr    = fs.String("addr", "127.0.0.1:7946", "listen address")
		jobs    = fs.Int("jobs", 0, "max concurrent planning jobs (0 = NumCPU)")
		sensors = fs.Int("max-sensors", controlplane.DefaultMaxSensors, "admission limit: sensors per snapshot")
		targets = fs.Int("max-targets", controlplane.DefaultMaxTargets, "admission limit: targets per snapshot")
		deploys = fs.Int("max-deployments", controlplane.DefaultMaxDeployments, "admission limit: snapshots per tenant")
		dataDir = fs.String("data-dir", "", "durable state directory (empty = in-memory only)")
		verbose = fs.Bool("v", false, "log every admission and serving event")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := log.New(out, "coold ", log.LstdFlags)
	srv := controlplane.NewServer(controlplane.Config{
		Limits: controlplane.Limits{
			MaxSensors:     *sensors,
			MaxTargets:     *targets,
			MaxDeployments: *deploys,
		},
		MaxJobs: *jobs,
		Logf: func(format string, a ...any) {
			if *verbose {
				logger.Printf(format, a...)
			}
		},
	})

	if *dataDir != "" {
		start := time.Now()
		store, recovered, err := controlplane.OpenStore(*dataDir, controlplane.StoreOptions{})
		if err != nil {
			return err
		}
		stats, err := srv.UseStore(store, recovered)
		if err != nil {
			store.Close()
			return err
		}
		if stats.TornTail != nil {
			logger.Printf("recovery: %v (clean prefix kept)", stats.TornTail)
		}
		logger.Printf("recovered %d snapshots across %d tenants (%d from checkpoint, %d WAL records) from %s in %v",
			stats.Snapshots, stats.Tenants, stats.Checkpointed, stats.Records, *dataDir, time.Since(start).Round(time.Microsecond))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("listening on %s (protocol v%d)", ln.Addr(), controlplane.MaxVersion)
	if ready != nil {
		ready(ln.Addr().String(), func() { srv.Close() })
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case s := <-sig:
		logger.Printf("received %v, shutting down", s)
		srv.Close()
		<-done
		return nil
	case err := <-done:
		srv.Close() // close the log even on listener failure
		return err
	}
}
