// Command snaple-worker serves SNAPLE partitions over TCP for the dist
// execution backend: a coordinator (snaple -engine dist, or any program
// using snaple.Predict with Engine "dist") vertex-cuts the graph, ships one
// partition to each worker, and drives Algorithm 2's supersteps through the
// internal/wire protocol. Workers hold only their partition — the full graph
// never has to fit on one machine.
//
// Usage:
//
//	snaple-worker                          # ephemeral loopback port
//	snaple-worker -listen 0.0.0.0:7777     # fixed port, reachable remotely
//	snaple-worker -shard graph.sgr.2       # resident: pin one packed shard
//
// The first stdout line announces the bound address as "listening <addr>",
// which is how spawning coordinators and the CI cluster-smoke script learn
// ephemeral ports. Connections are served concurrently. Without -shard, each
// coordinator connection ships the worker its partition once, for the life
// of the connection, and then opens every job on it with a fingerprint
// attach. With -shard the worker loads one partition packed by `snaple pack
// -shards` at startup and stays resident: coordinators attach without ever
// shipping (a ship is refused), so several front-ends can share the worker,
// and an attach for a different pack is refused. Either way the worker keeps
// serving until killed (SIGINT/SIGTERM exit cleanly).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"snaple/internal/graph"
	"snaple/internal/wire"
)

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:0", "address to listen on ('host:0' picks an ephemeral port)")
		quiet  = flag.Bool("quiet", false, "suppress per-session logging on stderr")
		shard  = flag.String("shard", "", "stay resident for this packed shard file (written by `snaple pack -shards`); coordinators attach by fingerprint instead of shipping partitions")
	)
	flag.Parse()

	if err := run(*listen, *quiet, *shard); err != nil {
		fmt.Fprintln(os.Stderr, "snaple-worker:", err)
		os.Exit(1)
	}
}

func run(listen string, quiet bool, shard string) error {
	var resident *graph.ShardFile
	var shardMapped bool
	if shard != "" {
		// Pinning is where a packed shard is checked, once: checksums and
		// graph.ShardFile.Validate. The numeric columns alias a read-only mmap
		// of the file when the platform allows, so a multi-gigabyte partition
		// costs no per-edge copy; heap loading is the automatic fallback.
		var err error
		if resident, shardMapped, err = graph.MapShardFile(shard); err != nil {
			return err
		}
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	// The announcement contract: exactly "listening <addr>" as the first
	// stdout line (engine.Fleet's spawner and scripts/cluster_smoke.sh parse
	// it).
	fmt.Printf("listening %s\n", l.Addr())

	logf := func(string, ...any) {}
	if !quiet {
		logger := log.New(os.Stderr, "snaple-worker: ", log.LstdFlags)
		logf = logger.Printf
		if resident != nil {
			how := "heap"
			if shardMapped {
				how = "mmap"
			}
			logf("resident for shard %d of %d (fingerprint %016x, %s)",
				resident.Shard, resident.Shards, resident.Fingerprint, how)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		l.Close() // Serve returns nil on a closed listener
	}()
	return wire.ServeWith(l, logf, wire.ServeOptions{Resident: resident})
}
