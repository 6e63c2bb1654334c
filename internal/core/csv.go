package core

import (
	"encoding/csv"
	"io"
	"strconv"
)

// csvHeader is the column layout of the released measurement dataset
// (the paper publishes its per-page measurements at hispar.cs.duke.edu;
// this is our equivalent artifact).
var csvHeader = []string{
	"domain", "rank", "category", "page_type", "url", "scheme",
	"bytes", "objects", "plt_ms", "speed_index_ms", "onload_ms",
	"noncacheable", "cacheable_bytes", "cdn_bytes", "cdn_hits", "cdn_misses",
	"domains", "hints", "handshakes", "handshake_ms",
	"trackers", "ad_slots", "has_hb", "mixed_content", "insecure_redirect",
	"third_parties", "depth2plus",
}

// emitMeasurementRow writes one dataset row for page p of site s. It is
// shared by the in-memory writer and the streaming CSVSink so both
// produce identical bytes.
func emitMeasurementRow(cw *csv.Writer, s *SiteResult, p *PageMeasurement, kind string) error {
	deep := 0
	for d := 2; d < len(p.DepthCounts); d++ {
		deep += p.DepthCounts[d]
	}
	return cw.Write([]string{
		s.Domain, strconv.Itoa(s.Rank), s.Category, kind, p.URL, p.Scheme,
		strconv.FormatInt(p.Bytes, 10), strconv.Itoa(p.Objects),
		strconv.FormatInt(p.PLT.Milliseconds(), 10),
		strconv.FormatInt(p.SpeedIndex.Milliseconds(), 10),
		strconv.FormatInt(p.OnLoad.Milliseconds(), 10),
		strconv.Itoa(p.NonCacheable), strconv.FormatInt(p.CacheableBytes, 10),
		strconv.FormatInt(p.CDNBytes, 10), strconv.Itoa(p.CDNHits), strconv.Itoa(p.CDNMisses),
		strconv.Itoa(p.UniqueDomains), strconv.Itoa(p.Hints),
		strconv.Itoa(p.Handshakes), strconv.FormatInt(p.HandshakeTime.Milliseconds(), 10),
		strconv.Itoa(p.TrackerRequests), strconv.Itoa(p.AdSlots),
		strconv.FormatBool(p.HasHB), strconv.FormatBool(p.MixedContent),
		strconv.FormatBool(p.InsecureRedirect),
		strconv.Itoa(len(p.ThirdParties)), strconv.Itoa(deep),
	})
}

// emitSiteRows writes one site's rows: the landing page, then each
// internal page in measurement order.
func emitSiteRows(cw *csv.Writer, s *SiteResult) error {
	if err := emitMeasurementRow(cw, s, &s.Landing, "landing"); err != nil {
		return err
	}
	for j := range s.Internal {
		if err := emitMeasurementRow(cw, s, &s.Internal[j], "internal"); err != nil {
			return err
		}
	}
	return nil
}

// WriteMeasurementsCSV writes the study's per-page measurements as the
// public dataset.
func WriteMeasurementsCSV(w io.Writer, res *StudyResult) error {
	return writeCSV(w, csvHeader, res.Sites, emitSiteRows)
}

// warmCSVHeader is the column layout of the cold→warm pair dataset.
var warmCSVHeader = []string{
	"domain", "rank", "category", "page_type", "url",
	"cold_bytes", "cold_transfer_bytes", "warm_transfer_bytes", "byte_savings",
	"cold_requests", "warm_network_requests", "request_savings",
	"warm_cache_hits", "warm_revalidations",
	"cold_onload_ms", "warm_onload_ms", "onload_speedup",
}

// emitPairRow writes one pair-dataset row for page pair p of site s.
func emitPairRow(cw *csv.Writer, s *WarmSiteResult, p *PagePair, kind string) error {
	return cw.Write([]string{
		s.Domain, strconv.Itoa(s.Rank), s.Category, kind, p.Cold.URL,
		strconv.FormatInt(p.Cold.Bytes, 10),
		strconv.FormatInt(p.Cold.TransferBytes, 10),
		strconv.FormatInt(p.Warm.TransferBytes, 10),
		strconv.FormatFloat(p.ByteSavings(), 'f', 4, 64),
		strconv.Itoa(p.Cold.NetworkRequests),
		strconv.Itoa(p.Warm.NetworkRequests),
		strconv.FormatFloat(p.RequestSavings(), 'f', 4, 64),
		strconv.Itoa(p.Warm.CacheHits),
		strconv.Itoa(p.Warm.Revalidations),
		strconv.FormatInt(p.Cold.OnLoad.Milliseconds(), 10),
		strconv.FormatInt(p.Warm.OnLoad.Milliseconds(), 10),
		strconv.FormatFloat(p.OnLoadSpeedup(), 'f', 4, 64),
	})
}

// emitWarmSiteRows writes one site's pair rows: the landing pair, then
// each internal pair in measurement order.
func emitWarmSiteRows(cw *csv.Writer, s *WarmSiteResult) error {
	if err := emitPairRow(cw, s, &s.Landing, "landing"); err != nil {
		return err
	}
	for j := range s.Internal {
		if err := emitPairRow(cw, s, &s.Internal[j], "internal"); err != nil {
			return err
		}
	}
	return nil
}

// WriteWarmCSV writes a cold→warm study's per-page pairs.
func WriteWarmCSV(w io.Writer, res *WarmStudyResult) error {
	return writeCSV(w, warmCSVHeader, res.Sites, emitWarmSiteRows)
}

// writeCSV writes header and then every site's rows through emit.
func writeCSV[R any](w io.Writer, header []string, sites []R, emit func(*csv.Writer, *R) error) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range sites {
		if err := emit(cw, &sites[i]); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvSinkFlushEvery is how many sites a row sink buffers between flushes
// of the underlying csv writer — batching writes without letting an
// interrupted run hold back more than a window's worth of rows.
const csvSinkFlushEvery = 64

// rowSink streams a CSV dataset row by row as sites retire, producing
// bytes identical to the in-memory writer over the same surviving sites
// without ever holding more than one site.
type rowSink[R any] struct {
	cw    *csv.Writer
	emit  func(*csv.Writer, *R) error
	sites int
}

// CSVSink streams the per-page measurement dataset: WriteMeasurementsCSV's
// bytes.
type CSVSink = rowSink[SiteResult]

// WarmCSVSink streams the cold→warm pair dataset: WriteWarmCSV's bytes.
type WarmCSVSink = rowSink[WarmSiteResult]

// NewCSVSink writes the measurement dataset header and returns the sink.
func NewCSVSink(w io.Writer) (*CSVSink, error) { return newRowSink(w, csvHeader, emitSiteRows) }

// NewWarmCSVSink writes the pair dataset header and returns the sink.
func NewWarmCSVSink(w io.Writer) (*WarmCSVSink, error) {
	return newRowSink(w, warmCSVHeader, emitWarmSiteRows)
}

func newRowSink[R any](w io.Writer, header []string, emit func(*csv.Writer, *R) error) (*rowSink[R], error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return nil, err
	}
	return &rowSink[R]{cw: cw, emit: emit}, nil
}

// ConsumeSite emits the site's rows (landing first, then internals);
// failed sites contribute nothing, as in the in-memory dataset.
func (c *rowSink[R]) ConsumeSite(res *R, out *Outcome) error {
	if !out.OK {
		return nil
	}
	if err := c.emit(c.cw, res); err != nil {
		return err
	}
	c.sites++
	if c.sites%csvSinkFlushEvery == 0 {
		c.cw.Flush()
		if err := c.cw.Error(); err != nil {
			return err
		}
	}
	return nil
}

// Flush drains the writer.
func (c *rowSink[R]) Flush() error {
	c.cw.Flush()
	return c.cw.Error()
}
