package cdndetect

import (
	"testing"

	"repro/internal/har"
)

func entry(url string, headers ...har.Header) *har.Entry {
	return &har.Entry{
		Request:  har.Request{Method: "GET", URL: url},
		Response: har.Response{Status: 200, Headers: headers},
	}
}

func TestHostSuffixAttribution(t *testing.T) {
	d := New(nil)
	res, ok := d.Attribute(entry("https://assets-foo.fastcache.net/x.js"))
	if !ok || res.Provider != "fastcache" || res.Method != "host" {
		t.Errorf("host attribution = %+v, %v", res, ok)
	}
	if _, ok := d.Attribute(entry("https://www.example.com/x.js")); ok {
		t.Error("plain origin attributed to a CDN")
	}
}

func TestServerHeaderAttribution(t *testing.T) {
	d := New(nil)
	res, ok := d.Attribute(entry("https://static.example.com/x.js",
		har.Header{Name: "Server", Value: "CloudMesh"}))
	if !ok || res.Provider != "cloudmesh" || res.Method != "server" {
		t.Errorf("server attribution = %+v, %v", res, ok)
	}
	if _, ok := d.Attribute(entry("https://static.example.com/x.js",
		har.Header{Name: "Server", Value: "nginx"})); ok {
		t.Error("nginx attributed to a CDN")
	}
}

func TestViaHeaderAttribution(t *testing.T) {
	d := New(nil)
	res, ok := d.Attribute(entry("https://static.example.com/x.js",
		har.Header{Name: "Server", Value: "nginx"},
		har.Header{Name: "Via", Value: "1.1 edgenova"}))
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
	res, ok := d.Attribute(entry("https://static.example.com/x.css",
		har.Header{Name: "Server", Value: "nginx"}))
	if !ok || res.Provider != "swiftlayer" || res.Method != "cname" {
		t.Errorf("cname attribution = %+v, %v", res, ok)
	}
	if _, ok := d.Attribute(entry("https://www.example.com/",
		har.Header{Name: "Server", Value: "nginx"})); ok {
		t.Error("non-CNAMEd host attributed")
	}
}

func TestCacheStatus(t *testing.T) {
	if got := CacheStatus(entry("u", har.Header{Name: "X-Cache", Value: "HIT"})); got != 1 {
		t.Errorf("HIT = %d", got)
	}
	if got := CacheStatus(entry("u", har.Header{Name: "X-Cache", Value: "miss"})); got != -1 {
		t.Errorf("miss = %d", got)
	}
	if got := CacheStatus(entry("u")); got != 0 {
		t.Errorf("absent = %d", got)
	}
}
