package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// shardNames are the shards' fixed identities. The ring hashes these
// names, not listener ports, so placement repeats from run to run.
var shardNames = []string{"http://shard-a", "http://shard-b"}

// Fleet is the deployed topology booted inside this process on loopback
// sockets: one router in front of two shards, built with the same
// public constructors and defaults cmd/pimrouter and cmd/pimserve use.
type Fleet struct {
	Router    *cluster.Router
	Shards    []*service.Service
	RouterURL string
	ShardURLs []string // real listener URLs, for /stats scrapes

	servers  []*http.Server // shards first, the router last
	upstream *http.Transport
	done     chan error
}

// bootFleet starts the shards and the router. tracer may be nil; when
// set, the router and shard handlers are wrapped to record spans.
func bootFleet(cacheBytes int64, tracer *Tracer) (*Fleet, error) {
	f := &Fleet{done: make(chan error, len(shardNames)+1)}
	addrs := make(map[string]string, len(shardNames))
	var listeners []net.Listener
	fail := func(err error) (*Fleet, error) {
		for _, ln := range listeners {
			ln.Close()
		}
		return nil, err
	}
	for range shardNames {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("listen: %w", err))
		}
		listeners = append(listeners, ln)
	}
	routerLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(fmt.Errorf("listen: %w", err))
	}
	listeners = append(listeners, routerLn)

	// Requests to a shard's fixed name dial its real listener.
	for i, name := range shardNames {
		addrs[strings.TrimPrefix(name, "http://")+":80"] = listeners[i].Addr().String()
	}
	var dialer net.Dialer
	mapped := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := addrs[addr]; ok {
				addr = real
			}
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 64, // cluster.NewRouter's default pool
	}
	f.upstream = mapped
	var upstream http.RoundTripper = mapped
	if tracer != nil {
		upstream = tracer.transport(mapped)
	}

	// pimserve's flag defaults, with -peer-fill on as a cluster
	// deployment runs it.
	for i := range shardNames {
		cfg := service.Config{
			MaxInflight:     2 * runtime.GOMAXPROCS(0),
			CacheSize:       service.DefaultCacheSize,
			CacheBytes:      cacheBytes,
			Timeout:         30 * time.Second,
			MaxBodyBytes:    service.DefaultMaxBodyBytes,
			MaxBatchSpecs:   service.DefaultMaxBatchSpecs,
			MaxTableCells:   service.DefaultMaxTableCells,
			PeerFillTimeout: service.DefaultPeerFillTimeout,
			PeerFill:        cluster.NewPeerFill(&http.Client{Transport: upstream}, service.DefaultMaxTableCells),
		}
		svc := service.New(cfg)
		var h http.Handler = svc.Handler()
		if tracer != nil {
			h = tracer.wrapShard(svc, h)
		}
		f.Shards = append(f.Shards, svc)
		f.ShardURLs = append(f.ShardURLs, "http://"+listeners[i].Addr().String())
		f.serve(listeners[i], h)
	}

	// pimrouter's flag defaults: replication 2, peer fill on.
	f.Router = cluster.NewRouter(cluster.RouterConfig{
		Backends:    shardNames,
		Replicas:    cluster.DefaultReplicas,
		Replication: cluster.DefaultReplication,
		PeerFill:    true,
		Client:      &http.Client{Transport: upstream},
	})
	var rh http.Handler = f.Router.Handler()
	if tracer != nil {
		rh = tracer.wrapRouter(rh)
	}
	f.RouterURL = "http://" + routerLn.Addr().String()
	f.serve(routerLn, rh)
	return f, nil
}

func (f *Fleet) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	go func() { f.done <- srv.Serve(ln) }()
}

// Close stops the router's background work and its listener, drops
// the router's pooled upstream connections (a shard's graceful shutdown
// waits out a connection that never carried a request), stops the
// shards, and waits for every server goroutine to return.
func (f *Fleet) Close() {
	f.Router.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdown := func(srv *http.Server) {
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
	}
	shutdown(f.servers[len(f.servers)-1])
	f.upstream.CloseIdleConnections()
	for _, srv := range f.servers[:len(f.servers)-1] {
		shutdown(srv)
	}
	for range f.servers {
		<-f.done
	}
	for _, s := range f.Shards {
		s.Close()
	}
}

// Counters is one scrape of the fleet's /stats surfaces.
type Counters struct {
	Router cluster.RouterStats
	Shards []service.Stats
}

func (f *Fleet) scrape(client *http.Client) (Counters, error) {
	var c Counters
	if err := getJSON(client, f.RouterURL+"/stats", &c.Router); err != nil {
		return c, err
	}
	c.Shards = make([]service.Stats, len(f.ShardURLs))
	for i, u := range f.ShardURLs {
		if err := getJSON(client, u+"/stats", &c.Shards[i]); err != nil {
			return c, err
		}
	}
	return c, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}
