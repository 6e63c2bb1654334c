package core

import (
	"reflect"
	"testing"
	"time"
)

func TestMedianizeTimings(t *testing.T) {
	mk := func(plt, si, onload, hsTime int, hs, hits int) PageMeasurement {
		return PageMeasurement{
			Bytes: 1000, Objects: 10,
			PLT:           time.Duration(plt) * time.Millisecond,
			SpeedIndex:    time.Duration(si) * time.Millisecond,
			OnLoad:        time.Duration(onload) * time.Millisecond,
			HandshakeTime: time.Duration(hsTime) * time.Millisecond,
			Handshakes:    hs,
			CDNHits:       hits,
		}
	}
	fetches := []PageMeasurement{
		mk(900, 1100, 2000, 500, 40, 10),
		mk(700, 900, 1800, 450, 38, 12),
		mk(1100, 1500, 2400, 600, 44, 8),
	}
	agg := medianizeTimings(fetches)
	if agg.PLT != 900*time.Millisecond {
		t.Errorf("PLT median = %v", agg.PLT)
	}
	if agg.SpeedIndex != 1100*time.Millisecond {
		t.Errorf("SI median = %v", agg.SpeedIndex)
	}
	if agg.OnLoad != 2000*time.Millisecond {
		t.Errorf("onLoad median = %v", agg.OnLoad)
	}
	if agg.HandshakeTime != 500*time.Millisecond || agg.Handshakes != 40 {
		t.Errorf("handshakes = %d/%v", agg.Handshakes, agg.HandshakeTime)
	}
	if agg.CDNHits != 10 {
		t.Errorf("CDN hits median = %d", agg.CDNHits)
	}
	// Structure comes from the first fetch.
	if agg.Bytes != 1000 || agg.Objects != 10 {
		t.Error("structural fields lost")
	}
	// Even count: mean of middle two.
	even := medianizeTimings(fetches[:2])
	if even.PLT != 800*time.Millisecond {
		t.Errorf("even-count PLT = %v", even.PLT)
	}
}

func TestStudyConfigDefaults(t *testing.T) {
	cfg := StudyConfig{}.withDefaults()
	if cfg.LandingFetches != 10 {
		t.Errorf("LandingFetches default = %d, want the paper's 10", cfg.LandingFetches)
	}
	if cfg.Workers <= 0 || cfg.CDNWarmthRate <= 0 || cfg.CDNWarmthCeiling <= 0 {
		t.Errorf("defaults incomplete: %+v", cfg)
	}
}

func TestMeasureHARLandingDetection(t *testing.T) {
	model := fixtureModel(t)
	log := handHAR(model)
	m := MeasureHAR(log, fixtureAnalyzers())
	if !m.IsLanding {
		t.Error("root-document URL not classified as landing")
	}
	log.Page.URL = "https://example.com/article/42"
	if MeasureHAR(log, fixtureAnalyzers()).IsLanding {
		t.Error("internal URL classified as landing")
	}
	// The HAR-only path must agree with the model-aware path on every
	// field a HAR decides: only the DOM and site fields differ, and the
	// scheme of an insecure-redirect page, which the model takes from the
	// redirect target.
	loads, st := simulatedLoads(t)
	loads = append(loads, simLoad{"handcrafted", model, handHAR(model)})
	var hb, redirect, hits, revalidations int
	az := st.Analyzers()
	for _, l := range loads {
		full := MeasurePage(l.log, l.model, az)
		haro := MeasureHAR(l.log, az)
		full.Domain, full.Rank, full.Category, full.Hints, full.AdSlots = "", 0, "", 0, 0
		if _, ok := l.model.Page.RedirectsToInsecure(); ok {
			haro.Scheme = full.Scheme
		}
		if !reflect.DeepEqual(full, haro) {
			t.Errorf("%s: HAR-only analysis diverges from model-aware analysis:\nfull %+v\nhar  %+v", l.name, full, haro)
		}
		if full.HasHB {
			hb++
		}
		if full.InsecureRedirect {
			redirect++
		}
		hits += full.CacheHits
		revalidations += full.Revalidations
	}
	if hb == 0 || redirect == 0 || hits == 0 || revalidations == 0 {
		t.Errorf("loads miss a case: %d header-bidding, %d insecure-redirect, %d cache hits, %d revalidations",
			hb, redirect, hits, revalidations)
	}
}
