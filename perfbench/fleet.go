package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"wavelethpc/client"
	"wavelethpc/internal/cli"
	"wavelethpc/internal/gateway"
	"wavelethpc/internal/serve"
)

// fleetSpec describes the servers a workload drives: backends, and
// optionally a gateway in front of them configured by extra wavegate
// flags. Everything else is the daemons' default flag configuration.
type fleetSpec struct {
	backends    int
	gateway     bool
	gatewayArgs []string
}

// tiled reports whether the gateway splits each request into stripes.
func (s fleetSpec) tiled() bool {
	for _, a := range s.gatewayArgs {
		if strings.HasPrefix(a, "-tile-rows=") {
			return true
		}
	}
	return false
}

// fleet is the in-process system under test: waveserved-equivalent
// servers and an optional wavegate-equivalent gateway, each on its own
// 127.0.0.1 listener, plus the client that talks to the front.
type fleet struct {
	servers []*serve.Server
	gw      *gateway.Gateway
	client  *client.Client
	clientT *http.Transport

	httpSrvs []*http.Server
	wg       sync.WaitGroup
}

// defaultFlags parses args (nil for the defaults) into a daemon's flag set.
func defaultFlags(name string, add func(*flag.FlagSet), args []string) error {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	add(fs)
	return fs.Parse(args)
}

// startFleet builds and serves the fleet. With rec non-nil every hop is
// traced: the client's transport, the gateway's handler and its backend
// transport, and each server's handler.
func startFleet(spec fleetSpec, rec *recorder) (_ *fleet, err error) {
	f := &fleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	var urls []string
	for i := 0; i < spec.backends; i++ {
		var sf cli.ServeFlags
		if err := defaultFlags("waveserved", sf.AddServe, nil); err != nil {
			return nil, err
		}
		cfg, err := sf.ServeConfig()
		if err != nil {
			return nil, err
		}
		srv, err := serve.New(cfg)
		if err != nil {
			return nil, err
		}
		f.servers = append(f.servers, srv)
		h := srv.Handler()
		if rec != nil {
			h = rec.middleware(h, "serve")
		}
		u, err := f.listen(h)
		if err != nil {
			return nil, err
		}
		urls = append(urls, u)
	}
	front := urls[0]
	if spec.gateway {
		var gf cli.GatewayFlags
		args := append([]string{"-backends=" + strings.Join(urls, ",")}, spec.gatewayArgs...)
		if err := defaultFlags("wavegate", gf.AddGateway, args); err != nil {
			return nil, err
		}
		cfg, err := gf.GatewayConfig()
		if err != nil {
			return nil, err
		}
		if rec != nil {
			// The gateway's own default transport, wrapped.
			cfg.Transport = rec.transport(&http.Transport{MaxIdleConnsPerHost: 64}, "gateway.attempt")
		}
		if f.gw, err = gateway.New(cfg); err != nil {
			return nil, err
		}
		h := f.gw.Handler()
		if rec != nil {
			h = rec.middleware(h, "gateway")
		}
		if front, err = f.listen(h); err != nil {
			return nil, err
		}
	}
	f.clientT = http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = f.clientT
	if rec != nil {
		rt = rec.transport(rt, "client.transport")
	}
	f.client = client.New(front, client.WithHTTPClient(&http.Client{Transport: rt}))
	return f, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.httpSrvs = append(f.httpSrvs, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every listener, the gateway and the servers, and waits
// for their goroutines.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if f.clientT != nil {
		f.clientT.CloseIdleConnections()
	}
	for i := len(f.httpSrvs) - 1; i >= 0; i-- {
		errs = append(errs, f.httpSrvs[i].Shutdown(ctx))
	}
	f.wg.Wait()
	if f.gw != nil {
		errs = append(errs, f.gw.Shutdown(ctx))
	}
	for _, s := range f.servers {
		errs = append(errs, s.Shutdown(ctx))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("stopping fleet: %w", err)
	}
	return nil
}

// counters is the fleet's program-side counters at one instant.
type counters struct {
	decomposers, rejected                            int64
	admitted, attempts, stripes, hits, misses, evict int64
}

func (f *fleet) counters() counters {
	var c counters
	for _, s := range f.servers {
		c.decomposers += s.CreatedDecomposers()
		c.rejected += s.Metrics().Rejected.Value()
	}
	if f.gw != nil {
		m := f.gw.Metrics()
		c.admitted = m.Admitted.Value()
		c.stripes = m.TileStripes.Value()
		c.hits = m.CacheHits.Value()
		c.misses = m.CacheMisses.Value()
		c.evict = m.CacheEvictions.Value()
		for _, b := range f.gw.Backends() {
			c.attempts += m.Backend(b).Requests.Value()
		}
	}
	return c
}
