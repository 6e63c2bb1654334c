package cdndetect

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestHostSuffixAttribution(t *testing.T) {
	d := New(nil)
	res, ok := d.Attribute("assets-foo.fastcache.net", "", "")
	if !ok || res.Provider != "fastcache" || res.Method != "host" {
		t.Errorf("host attribution = %+v, %v", res, ok)
	}
	if _, ok := d.Attribute("www.example.com", "", ""); ok {
		t.Error("plain origin attributed to a CDN")
	}
}

func TestServerHeaderAttribution(t *testing.T) {
	d := New(nil)
	res, ok := d.Attribute("static.example.com", "CloudMesh", "")
	if !ok || res.Provider != "cloudmesh" || res.Method != "server" {
		t.Errorf("server attribution = %+v, %v", res, ok)
	}
	if _, ok := d.Attribute("static.example.com", "nginx", ""); ok {
		t.Error("nginx attributed to a CDN")
	}
}

func TestViaHeaderAttribution(t *testing.T) {
	d := New(nil)
	res, ok := d.Attribute("static.example.com", "nginx", "1.1 EdgeNova")
	if !ok || res.Provider != "edgenova" || res.Method != "via" {
		t.Errorf("via attribution = %+v, %v", res, ok)
	}
}

func TestCNAMEAttribution(t *testing.T) {
	d := New(func(host string) []string {
		if host == "static.example.com" {
			return []string{"static.example.com.swiftlayer-edge.net"}
		}
		return nil
	})
	res, ok := d.Attribute("static.example.com", "nginx", "")
	if !ok || res.Provider != "swiftlayer" || res.Method != "cname" {
		t.Errorf("cname attribution = %+v, %v", res, ok)
	}
	if _, ok := d.Attribute("www.example.com", "nginx", ""); ok {
		t.Error("non-CNAMEd host attributed")
	}
}

func TestCacheStatus(t *testing.T) {
	if got := CacheStatus("HIT"); got != 1 {
		t.Errorf("HIT = %d", got)
	}
	if got := CacheStatus("miss"); got != -1 {
		t.Errorf("miss = %d", got)
	}
	if got := CacheStatus(""); got != 0 {
		t.Errorf("absent = %d", got)
	}
}

// scanAttribute is the linear scan Attribute's indexes replace, kept as
// the oracle: every heuristic tries the signatures in roster order.
func scanAttribute(d *Detector, host, server, via string) (Result, bool) {
	for _, s := range d.sigs {
		if s.HostSuffix != "" && strings.HasSuffix(host, s.HostSuffix) {
			return Result{Provider: s.Provider, Method: "host"}, true
		}
	}
	if sv := strings.ToLower(server); sv != "" {
		for _, s := range d.sigs {
			if s.ServerHeader != "" && sv == s.ServerHeader {
				return Result{Provider: s.Provider, Method: "server"}, true
			}
		}
	}
	if via = strings.ToLower(via); via != "" {
		for _, s := range d.sigs {
			if strings.Contains(via, s.Provider) {
				return Result{Provider: s.Provider, Method: "via"}, true
			}
		}
	}
	if d.cnames != nil {
		for _, cname := range d.cnames(host) {
			for _, s := range d.sigs {
				if s.CNAMESuffix != "" && strings.HasSuffix(cname, s.CNAMESuffix) {
					return Result{Provider: s.Provider, Method: "cname"}, true
				}
			}
		}
	}
	return Result{}, false
}

// TestAttributeMatchesScan holds the indexed lookups to the in-order
// scan over random hosts, headers and CNAME chains built from roster
// names, near misses included.
func TestAttributeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := New(nil)
	for _, s := range base.sigs {
		if !strings.HasPrefix(s.HostSuffix, ".") || !strings.HasPrefix(s.CNAMESuffix, ".") {
			t.Fatalf("signature %+v: suffixes must begin with '.'", s)
		}
	}
	name := func() string {
		switch s := base.sigs[rng.Intn(len(base.sigs))]; rng.Intn(8) {
		case 0:
			return "www.example.com"
		case 1:
			return s.Provider + ".net" // no leading label: no host match
		case 2:
			return "x" + s.Provider + ".net"
		case 3:
			return "a." + s.Provider + ".net.example.org"
		case 4:
			return "static.example.com" + s.CNAMESuffix
		case 5:
			return "e1." + s.Provider + "-edge.net"
		default:
			return "assets-" + strconv.Itoa(rng.Intn(9)) + s.HostSuffix
		}
	}
	word := func() string {
		switch s := base.sigs[rng.Intn(len(base.sigs))]; rng.Intn(5) {
		case 0:
			return ""
		case 1:
			return "nginx"
		case 2:
			return strings.ToUpper(s.Provider)
		case 3:
			return "1.1 " + s.Provider
		default:
			return s.Provider + "x"
		}
	}
	chains := map[string][]string{}
	d := New(func(host string) []string { return chains[host] })
	scan := &Detector{sigs: d.sigs, cnames: d.cnames}
	for iter := 0; iter < 5000; iter++ {
		host := name()
		chains[host] = nil
		for n := rng.Intn(3); n > 0; n-- {
			chains[host] = append(chains[host], name())
		}
		server, via := word(), word()
		got, ok := d.Attribute(host, server, via)
		want, wantOK := scanAttribute(scan, host, server, via)
		if got != want || ok != wantOK {
			t.Fatalf("Attribute(%q, %q, %q) with chain %q = %+v, %v; scan %+v, %v",
				host, server, via, chains[host], got, ok, want, wantOK)
		}
	}
}
