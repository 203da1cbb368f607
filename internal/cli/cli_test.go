package cli

import (
	"strings"
	"testing"

	"mpbasset/internal/refine"
)

func TestParseInts(t *testing.T) {
	got, err := ParseInts(" 2, 3 ,1", 3, "x")
	if err != nil || got[0] != 2 || got[1] != 3 || got[2] != 1 {
		t.Fatalf("ParseInts = %v, %v", got, err)
	}
	if _, err := ParseInts("2,3", 3, "x"); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := ParseInts("2,a,1", 3, "x"); err == nil {
		t.Error("non-numeric accepted")
	}
}

func TestBuildProtocolDefaults(t *testing.T) {
	cases := []struct {
		protocol string
		wantName string
		wantN    int
	}{
		{"paxos", "Paxos(2,3,1)/quorum", 6},
		{"faulty-paxos", "FaultyPaxos(2,3,1)/quorum", 6},
		{"multicast", "EchoMulticast(3,0,1,1)/quorum", 5},
		{"storage", "RegularStorage(3,1)/quorum", 5},
	}
	for _, tc := range cases {
		p, roles, err := BuildProtocol(tc.protocol, "", "", false)
		if err != nil {
			t.Fatalf("%s: %v", tc.protocol, err)
		}
		if p.Name != tc.wantName {
			t.Errorf("%s: name %q, want %q", tc.protocol, p.Name, tc.wantName)
		}
		if p.N != tc.wantN {
			t.Errorf("%s: N = %d, want %d", tc.protocol, p.N, tc.wantN)
		}
		if len(roles) == 0 {
			t.Errorf("%s: no symmetry roles", tc.protocol)
		}
	}
}

func TestBuildProtocolVariants(t *testing.T) {
	p, _, err := BuildProtocol("paxos", "1,5,2", "single", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Name, "(1,5,2)/single") {
		t.Errorf("name = %q", p.Name)
	}
	w, _, err := BuildProtocol("storage", "3,2", "quorum", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.Name, "WrongRegularity") {
		t.Errorf("wrong-spec name = %q", w.Name)
	}
}

func TestBuildProtocolErrors(t *testing.T) {
	if _, _, err := BuildProtocol("nope", "", "", false); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, _, err := BuildProtocol("paxos", "1,2", "", false); err == nil {
		t.Error("wrong setting arity accepted")
	}
	if _, _, err := BuildProtocol("paxos", "2,3,1", "weird", false); err == nil {
		t.Error("unknown model accepted")
	}
	if _, _, err := BuildProtocol("multicast", "0,0,0,0", "", false); err == nil {
		t.Error("empty multicast accepted")
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"4096", 4096, false},
		{" 4096 ", 4096, false},
		{"512B", 512, false},
		{"1K", 1 << 10, false},
		{"1k", 1 << 10, false},
		{"64M", 64 << 20, false},
		{"64MB", 64 << 20, false},
		{"64MiB", 64 << 20, false},
		{"2G", 2 << 30, false},
		{"1T", 1 << 40, false},
		{"1.5K", 1536, false},
		{"1.5G", 3 << 29, false},
		{".5K", 512, false},
		{"1.", 1, false},
		// Integer byte counts are exact — no float64 round-trip. 2^53+1 is
		// the first integer float64 cannot represent; the old parser
		// silently rounded it to 2^53.
		{"9007199254740993", 9007199254740993, false},
		{"9007199254740993B", 9007199254740993, false},
		{"4611686018427387903", 4611686018427387903, false}, // 2^62 - 1: the cap itself
		{"4611686018427387904", 0, true},                    // 2^62: past the cap
		{"8796093022207K", (int64(1)<<43 - 1) << 10, false}, // exact near the cap with a suffix
		{"-1", 0, true},
		{"-1K", 0, true},
		{"x", 0, true},
		{"Kx", 0, true},
		{"12Q", 0, true},
		{"NaN", 0, true},
		{"Inf", 0, true},
		{"1e30", 0, true},
		// Exotic float syntax strconv would happily accept is rejected:
		// scientific notation (with or without a suffix), hex floats,
		// digit-separating underscores, explicit signs and doubled points.
		{"1e3", 0, true},
		{"1e3M", 0, true},
		{"1E3", 0, true},
		{"0x1p10", 0, true},
		{"0X1P10", 0, true},
		{"1_000", 0, true},
		{"1_0.5K", 0, true},
		{"+5", 0, true},
		{"1.2.3", 0, true},
		{".", 0, true},
		{".K", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseBytes(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseBytes(%q) = %d, want error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}

func TestParseSplit(t *testing.T) {
	want := map[string]refine.Strategy{
		"":         refine.None,
		"none":     refine.None,
		"reply":    refine.Reply,
		"quorum":   refine.Quorum,
		"combined": refine.Combined,
	}
	for in, w := range want {
		got, err := ParseSplit(in)
		if err != nil || got != w {
			t.Errorf("ParseSplit(%q) = %v, %v; want %v", in, got, err, w)
		}
	}
	if _, err := ParseSplit("bogus"); err == nil {
		t.Error("bogus split accepted")
	}
}

func TestBuildProperty(t *testing.T) {
	cases := []struct {
		name     string
		protocol string
		setting  string
		model    string
		property string
		fair     bool
		wantName string
		wantErr  string
	}{
		{"no property", "paxos", "", "", "", false, "", ""},
		{"paxos decided", "paxos", "", "", "decided", false, "some learner decides", ""},
		{"faulty-paxos decided", "faulty-paxos", "2,3,1", "", "decided", false, "some learner decides", ""},
		{"paxos decided single", "paxos", "2,3,1", "single", "decided", false, "some learner decides", ""},
		{"paxos decided fair", "paxos", "", "", "decided", true, "some learner decides", ""},
		{"multicast delivered", "multicast", "3,0,1,1", "", "delivered", false, "honest receivers deliver", ""},
		{"multicast default setting", "multicast", "", "", "delivered", false, "honest receivers deliver", ""},
		{"storage reads-complete", "storage", "3,1", "", "reads-complete", false, "every read completes", ""},
		{"paxos wrong name", "paxos", "", "", "delivered", false, "", `unknown property "delivered"`},
		{"storage wrong name", "storage", "", "", "decided", false, "", `unknown property "decided"`},
		{"unknown protocol", "raft", "", "", "decided", false, "", "unknown protocol"},
		{"bad setting", "paxos", "2,3", "", "decided", false, "", "want 3 comma-separated numbers"},
		{"fair without property", "paxos", "", "", "", true, "", "-fair requires -property"},
	}
	for _, tc := range cases {
		prop, err := BuildProperty(tc.protocol, tc.setting, tc.model, tc.property, tc.fair)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
			continue
		}
		if tc.property == "" {
			if prop != nil {
				t.Errorf("%s: safety run got property %q", tc.name, prop.Name)
			}
			continue
		}
		if prop.Name != tc.wantName {
			t.Errorf("%s: property name %q, want %q", tc.name, prop.Name, tc.wantName)
		}
		if prop.WeakFair != tc.fair {
			t.Errorf("%s: WeakFair %v, want %v", tc.name, prop.WeakFair, tc.fair)
		}
		if prop.Accept == nil || len(prop.Reads) == 0 {
			t.Errorf("%s: property missing Accept or Reads", tc.name)
		}
	}
}

// TestBuildPropertyMatchesProtocol checks that the built property's Reads
// processes exist in the protocol built from the same arguments and that
// its Accept predicate evaluates on that protocol's states.
func TestBuildPropertyMatchesProtocol(t *testing.T) {
	for _, tc := range []struct {
		protocol, setting, property string
	}{
		{"paxos", "2,3,1", "decided"},
		{"faulty-paxos", "2,3,1", "decided"},
		// An honest initiator, so the delivery goal is not vacuously met.
		{"multicast", "2,1,1,1", "delivered"},
		{"storage", "3,1", "reads-complete"},
	} {
		p, _, err := BuildProtocol(tc.protocol, tc.setting, "", false)
		if err != nil {
			t.Fatal(err)
		}
		prop, err := BuildProperty(tc.protocol, tc.setting, "", tc.property, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range prop.Reads {
			if int(q) < 0 || int(q) >= p.N {
				t.Errorf("%s: property reads process %d, protocol has %d", tc.protocol, q, p.N)
			}
		}
		s, err := p.InitialState()
		if err != nil {
			t.Fatal(err)
		}
		if prop.Accept(s) != true {
			t.Errorf("%s: initial state should be accepting (goal unmet at start)", tc.protocol)
		}
	}
}
