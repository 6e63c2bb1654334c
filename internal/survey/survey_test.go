package survey

import (
	"math"
	"testing"
)

func TestDatasetMatchesPaper(t *testing.T) {
	rows := Dataset()
	if len(rows) != 5 {
		t.Fatalf("venues = %d", len(rows))
	}
	tot := Total(rows)
	if tot.Publications != 920 {
		t.Errorf("publications = %d, want 920", tot.Publications)
	}
	if tot.UsingTopList != 119 {
		t.Errorf("using top list = %d, want 119", tot.UsingTopList)
	}
	if tot.Major != 30 || tot.Minor != 48 || tot.None != 41 {
		t.Errorf("revision split = %d/%d/%d, want 30/48/41", tot.Major, tot.Minor, tot.None)
	}
	// Per-row consistency: the three scores partition the top-list users.
	for _, r := range rows {
		if r.Major+r.Minor+r.None != r.UsingTopList {
			t.Errorf("%s: %d+%d+%d != %d", r.Venue, r.Major, r.Minor, r.None, r.UsingTopList)
		}
	}
	// The paper's headline: nearly two-thirds need at least a minor
	// revision (78/119 = 0.655).
	if f := NeedingRevisionFraction(rows); math.Abs(f-0.655) > 0.01 {
		t.Errorf("needing-revision fraction = %.3f", f)
	}
}

func TestPipelineReproducesTable1(t *testing.T) {
	corpus := GenerateCorpus(99)
	if len(corpus) < 920 {
		t.Fatalf("corpus = %d papers", len(corpus))
	}
	rows := Tabulate(corpus)
	want := Dataset()
	for i := range rows {
		if rows[i].Venue != want[i].Venue {
			t.Fatalf("venue order mismatch")
		}
		if rows[i].UsingTopList != want[i].UsingTopList {
			t.Errorf("%s: using=%d want %d", rows[i].Venue, rows[i].UsingTopList, want[i].UsingTopList)
		}
		if rows[i].Major != want[i].Major || rows[i].Minor != want[i].Minor || rows[i].None != want[i].None {
			t.Errorf("%s: %d/%d/%d want %d/%d/%d", rows[i].Venue,
				rows[i].Major, rows[i].Minor, rows[i].None,
				want[i].Major, want[i].Minor, want[i].None)
		}
	}
}

func TestScanFlagsFalsePositives(t *testing.T) {
	corpus := []*Paper{
		{Venue: IMC, Text: "Our smart-home testbed includes an Alexa Echo voice assistant."},
		{Venue: IMC, Text: "In related work, prior work discusses the Tranco ranking."},
		{Venue: IMC, Text: "We crawl the Alexa top 500 web sites and measure page-load time."},
		{Venue: IMC, Text: "Nothing relevant here."},
	}
	res := scanCorpus(corpus)
	if len(res) != 3 {
		t.Fatalf("matches = %d, want 3", len(res))
	}
	if !res[0].FalsePositive || !res[1].FalsePositive {
		t.Error("device/related-work mentions must be flagged as false positives")
	}
	if res[2].FalsePositive {
		t.Error("genuine usage flagged as false positive")
	}
}

func TestReviewRubric(t *testing.T) {
	cases := []struct {
		text     string
		want     Revision
		internal bool
	}{
		{"We use Alexa and analyze browsing traces of real users covering internal pages.", NoRevision, true},
		{"We use the Alexa list but this study uses the top list only to rank sites.", NoRevision, false},
		{"We use Quantcast and measure page-load time on landing pages only.", MajorRevision, false},
		{"We use Majestic for a general system evaluation.", MinorRevision, false},
	}
	for _, c := range cases {
		rev, internal := review(matchResult{Paper: &Paper{Text: c.text}})
		if rev != c.want || internal != c.internal {
			t.Errorf("review(%.40q) = %v,%v want %v,%v", c.text, rev, internal, c.want, c.internal)
		}
	}
	// False positives review as no-revision/no-internal.
	if rev, ok := review(matchResult{FalsePositive: true, Paper: &Paper{Text: "page-load time"}}); rev != NoRevision || ok {
		t.Error("false positive should not be scored")
	}
}

func TestGroundTruthAgreement(t *testing.T) {
	corpus := GenerateCorpus(7)
	for _, r := range scanCorpus(corpus) {
		if r.FalsePositive {
			if r.Paper.TrueUsesTopList {
				t.Errorf("pipeline FP on a true top-list paper: %.60q", r.Paper.Text)
			}
			continue
		}
		if !r.Paper.TrueUsesTopList {
			t.Errorf("pipeline matched a non-top-list paper: %.60q", r.Paper.Text)
			continue
		}
		rev, internal := review(r)
		if rev != r.Paper.TrueRevision {
			t.Errorf("review %v != truth %v for %.60q", rev, r.Paper.TrueRevision, r.Paper.Text)
		}
		if internal != r.Paper.UsesInternal {
			t.Errorf("internal flag %v != truth %v", internal, r.Paper.UsesInternal)
		}
	}
}

func TestRevisionString(t *testing.T) {
	if NoRevision.String() != "No revision" || MajorRevision.String() != "Major revision" ||
		MinorRevision.String() != "Minor revision" || Revision(9).String() != "Unknown" {
		t.Error("revision names wrong")
	}
}
