package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/auth"
	"repro/internal/hostsim"
	"repro/internal/nodestatus"
	"repro/internal/registry"
	"repro/internal/rim"
	"repro/internal/simclock"
	"repro/internal/soap"
	"repro/internal/wal"
)

// hostFleet serves one static hostsim host per hostSpec behind
// nodestatus.NewHandler, each on its own loopback address so every host
// is one NodeState row.
type hostFleet struct {
	servers []*http.Server
	ports   []int
}

func startHosts(p *plan) (*hostFleet, error) {
	f := &hostFleet{}
	now := time.Now()
	for _, h := range p.hosts {
		ln, err := net.Listen("tcp", h.ip+":0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("host %s: %w", h.ip, err)
		}
		host := hostsim.NewHost(hostsim.Config{
			Name: h.ip, Cores: 4, AmbientLoad: h.load,
			TotalMemB: h.memMB << 20, TotalSwapB: 1 << 30,
		}, now)
		srv := &http.Server{Handler: nodestatus.NewHandler(host, simclock.Real{}), ReadHeaderTimeout: 5 * time.Second}
		go srv.Serve(ln)
		f.servers = append(f.servers, srv)
		f.ports = append(f.ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return f, nil
}

func (f *hostFleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
}

// uri is the access URI of one binding: the host's address and port with
// a per-service path.
func (f *hostFleet) uri(p *plan) func(s *serviceSpec, b bindingSpec) string {
	return func(s *serviceSpec, b bindingSpec) string {
		return fmt.Sprintf("http://%s:%d/%s", p.hosts[b.host].ip, f.ports[b.host], s.name)
	}
}

func (f *hostFleet) statusURIs(p *plan) []string {
	out := make([]string, len(p.hosts))
	for k, h := range p.hosts {
		out[k] = fmt.Sprintf("http://%s:%d/NodeStatus/NodeStatusService", h.ip, f.ports[k])
	}
	return out
}

// nodeStatusService is the NodeStatus service whose bindings are the
// collector's targets.
func nodeStatusService(uris []string) *rim.Service {
	svc := rim.NewService(nodestatus.ServiceName, "Service to monitor node status")
	for _, u := range uris {
		svc.AddBinding(u)
	}
	return svc
}

// seedRegistry writes the registry's boot state: the NodeStatus service,
// so the collector's first sweep at boot already polls every host. A
// durable registry gets it as a data directory; an in-memory one as a
// -snapshot file.
func seedRegistry(statusURIs []string, dataDir, snapshot string) error {
	cfg := registry.Config{DataDir: dataDir, Fsync: wal.FsyncNever}
	reg, err := registry.New(cfg)
	if err != nil {
		return fmt.Errorf("seed registry: %w", err)
	}
	if err := reg.LCM.SubmitObjects(reg.AdminContext(), nodeStatusService(statusURIs)); err != nil {
		return fmt.Errorf("seed registry: %w", err)
	}
	if dataDir != "" {
		return reg.Durable.Close()
	}
	return wal.WriteFileAtomic(snapshot, reg.Store.Save)
}

// wireService renders a service spec under a given constraint.
func wireService(s *serviceSpec, c constraintSpec, uri func(*serviceSpec, bindingSpec) string) registry.WireObject {
	w := registry.WireObject{Kind: "Service", ID: s.id, Name: s.name, Description: c.description()}
	for _, b := range s.bindings {
		w.Bindings = append(w.Bindings, registry.WireBinding{ID: b.id, AccessURI: uri(s, b)})
	}
	return w
}

// regRequest is the /soap/registry union envelope body.
type regRequest struct {
	XMLName  struct{}                       `xml:"RegistryRequest"`
	Submit   *registry.SubmitObjectsRequest `xml:"SubmitObjectsRequest,omitempty"`
	Update   *registry.UpdateObjectsRequest `xml:"UpdateObjectsRequest,omitempty"`
	Bindings *registry.GetBindingsRequest   `xml:"GetBindingsRequest,omitempty"`
}

type authRequest struct {
	XMLName   struct{}                   `xml:"AuthRequest"`
	Register  *registry.RegisterRequest  `xml:"RegisterRequest,omitempty"`
	Challenge *registry.ChallengeRequest `xml:"ChallengeRequest,omitempty"`
	Login     *registry.LoginRequest     `xml:"LoginRequest,omitempty"`
}

// session registers a fresh user over SOAP and logs in, returning the
// session token writes carry.
func session(ctx context.Context, c *http.Client, base string) (string, error) {
	const alias, password = "perfbench", "perfbench-pw"
	var reg registry.RegisterResponse
	if err := soap.PostContext(ctx, c, base+"/soap/auth", &authRequest{Register: &registry.RegisterRequest{
		Alias: alias, Password: password, FirstName: "Load", LastName: "Generator"}}, &reg); err != nil {
		return "", fmt.Errorf("register: %w", err)
	}
	creds := &auth.Credentials{Alias: alias, CertPEM: []byte(reg.CertPEM), KeyPEM: []byte(reg.KeyPEM)}
	var ch registry.ChallengeResponse
	if err := soap.PostContext(ctx, c, base+"/soap/auth", &authRequest{Challenge: &registry.ChallengeRequest{Alias: alias}}, &ch); err != nil {
		return "", fmt.Errorf("challenge: %w", err)
	}
	nonce, err := base64.StdEncoding.DecodeString(ch.Nonce)
	if err != nil {
		return "", fmt.Errorf("challenge nonce: %w", err)
	}
	sig, err := creds.SignChallenge(nonce)
	if err != nil {
		return "", fmt.Errorf("sign challenge: %w", err)
	}
	var login registry.LoginResponse
	if err := soap.PostContext(ctx, c, base+"/soap/auth", &authRequest{Login: &registry.LoginRequest{
		Alias: alias, Signature: base64.StdEncoding.EncodeToString(sig)}}, &login); err != nil {
		return "", fmt.Errorf("login: %w", err)
	}
	return login.Token, nil
}

// publish submits the fixture's services over SOAP in batches.
func publish(ctx context.Context, c *http.Client, base, token string, p *plan, uri func(*serviceSpec, bindingSpec) string) error {
	const batch = 256
	for i := 0; i < len(p.services); i += batch {
		req := &registry.SubmitObjectsRequest{Session: token}
		for j := i; j < i+batch && j < len(p.services); j++ {
			s := &p.services[j]
			req.Objects = append(req.Objects, wireService(s, s.cons, uri))
		}
		var resp registry.RegistryResponse
		if err := soap.PostContext(ctx, c, base+"/soap/registry", &regRequest{Submit: req}, &resp); err != nil {
			return fmt.Errorf("publish services %d..: %w", i, err)
		}
		if resp.Status != "Success" || len(resp.IDs) != len(req.Objects) {
			return fmt.Errorf("publish services %d..: status %q, %d ids", i, resp.Status, len(resp.IDs))
		}
	}
	return nil
}

// readAll drains a response body into buf, reusing its storage.
func readAll(buf *bytes.Buffer, r io.Reader) error {
	buf.Reset()
	_, err := buf.ReadFrom(r)
	return err
}

// mustMarshal renders a SOAP envelope the generator built itself.
func mustMarshal(v interface{}) []byte {
	b, err := soap.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: marshal request:", err)
		os.Exit(2)
	}
	return b
}
