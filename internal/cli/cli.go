package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"mpbasset/internal/core"
	"mpbasset/internal/liveness"
	"mpbasset/internal/protocols/multicast"
	"mpbasset/internal/protocols/paxos"
	"mpbasset/internal/protocols/storage"
	"mpbasset/internal/refine"
)

// ParseInts parses a comma-separated setting like "2,3,1".
func ParseInts(s string, want int, what string) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != want {
		return nil, fmt.Errorf("setting %q: want %d comma-separated numbers (%s)", s, want, what)
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("setting %q: %v", s, err)
		}
		out[i] = v
	}
	return out, nil
}

// BuildProtocol instantiates a bundled protocol from CLI-style arguments.
// It returns the protocol plus its symmetry roles. Supported protocols:
// "paxos", "faulty-paxos", "multicast", "storage"; model is "quorum"
// (default) or "single"; wrong selects the deliberately wrong storage
// specification. An empty setting selects the paper's default instance.
func BuildProtocol(protocol, setting, model string, wrong bool) (*core.Protocol, [][]core.ProcessID, error) {
	single := model == "single"
	if model != "" && model != "quorum" && !single {
		return nil, nil, fmt.Errorf("unknown model %q (want quorum or single)", model)
	}
	switch protocol {
	case "paxos", "faulty-paxos":
		if setting == "" {
			setting = "2,3,1"
		}
		v, err := ParseInts(setting, 3, "proposers,acceptors,learners")
		if err != nil {
			return nil, nil, err
		}
		cfg := paxos.Config{Proposers: v[0], Acceptors: v[1], Learners: v[2], Faulty: protocol == "faulty-paxos"}
		if single {
			cfg.Model = paxos.ModelSingle
		}
		p, err := paxos.New(cfg)
		return p, cfg.Roles(), err
	case "multicast":
		if setting == "" {
			setting = "3,0,1,1"
		}
		v, err := ParseInts(setting, 4, "honest receivers,honest initiators,byzantine receivers,byzantine initiators")
		if err != nil {
			return nil, nil, err
		}
		cfg := multicast.Config{HonestReceivers: v[0], HonestInitiators: v[1], ByzantineReceivers: v[2], ByzantineInitiators: v[3]}
		if single {
			cfg.Model = multicast.ModelSingle
		}
		p, err := multicast.New(cfg)
		return p, cfg.Roles(), err
	case "storage":
		if setting == "" {
			setting = "3,1"
		}
		v, err := ParseInts(setting, 2, "objects,readers")
		if err != nil {
			return nil, nil, err
		}
		cfg := storage.Config{Objects: v[0], Readers: v[1], WrongRegularity: wrong}
		if single {
			cfg.Model = storage.ModelSingle
		}
		p, err := storage.New(cfg)
		return p, cfg.Roles(), err
	default:
		return nil, nil, fmt.Errorf("unknown protocol %q (want paxos, faulty-paxos, multicast or storage)", protocol)
	}
}

// decimalDigits reports whether s consists of ASCII decimal digits only
// (vacuously true for the empty string).
func decimalDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// ParseBytes parses a human-readable byte size like "64M", "1.5GiB" or
// "4096": a non-negative plain decimal number — digits with at most one
// decimal point — with an optional binary-multiple suffix K/M/G/T (the
// B/iB spellings are accepted and equivalent — multiples are always
// 1024-based). An empty string is 0.
//
// Integer sizes are parsed exactly, with no float64 round-trip: byte
// counts above 2^53 (e.g. "9007199254740993") keep every digit. Only a
// genuine fraction ("1.5G") goes through floating point, and then only for
// its sub-unit part, so the error stays below one suffix unit. Scientific
// ("1e3"), hexadecimal ("0x1p10") and other exotic number syntax is
// rejected — a size flag that survives parsing should mean what it says.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, nil
	}
	upper := strings.ToUpper(t)
	mult := int64(1)
	for _, suf := range []struct {
		text string
		mult int64
	}{
		{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
		{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
		{"TIB", 1 << 40}, {"TB", 1 << 40}, {"T", 1 << 40},
		{"B", 1},
	} {
		if strings.HasSuffix(upper, suf.text) {
			mult = suf.mult
			upper = strings.TrimSpace(strings.TrimSuffix(upper, suf.text))
			break
		}
	}
	if strings.HasPrefix(upper, "-") {
		return 0, fmt.Errorf("byte size %q: must not be negative", s)
	}
	intPart, fracPart, _ := strings.Cut(upper, ".")
	if !decimalDigits(intPart) || !decimalDigits(fracPart) || intPart+fracPart == "" {
		return 0, fmt.Errorf("byte size %q: want a plain decimal number with an optional K/M/G/T suffix (scientific and hex notation are not accepted)", s)
	}
	const limit = int64(1) << 62
	var bytes int64
	if intPart != "" {
		v, err := strconv.ParseInt(intPart, 10, 64)
		if err != nil || v > (limit-1)/mult {
			return 0, fmt.Errorf("byte size %q: too large", s)
		}
		bytes = v * mult
	}
	if fracPart != "" {
		// The fraction is strictly below one unit of the multiplier, so the
		// float64 detour cannot touch the exact integer part.
		f, err := strconv.ParseFloat("0."+fracPart, 64)
		if err != nil || math.IsNaN(f) {
			return 0, fmt.Errorf("byte size %q: want a plain decimal number with an optional K/M/G/T suffix (scientific and hex notation are not accepted)", s)
		}
		bytes += int64(f * float64(mult))
	}
	if bytes >= limit {
		return 0, fmt.Errorf("byte size %q: too large", s)
	}
	return bytes, nil
}

// BuildProperty instantiates a bundled liveness property for a bundled
// protocol from CLI-style arguments. protocol, setting and model must be
// the same values BuildProtocol was called with, so the property's process
// IDs match the checked instance. Supported property names: "decided"
// (paxos, faulty-paxos), "delivered" (multicast), "reads-complete"
// (storage). fair restricts counterexamples to weakly fair schedules. An
// empty property name means safety checking: the result is nil, and fair,
// a property modifier, is refused.
func BuildProperty(protocol, setting, model, property string, fair bool) (*liveness.Property, error) {
	if property == "" {
		if fair {
			return nil, fmt.Errorf("-fair requires -property (it restricts that property's counterexamples to weakly fair schedules)")
		}
		return nil, nil
	}
	single := model == "single"
	var (
		prop *liveness.Property
		want string
	)
	switch protocol {
	case "paxos", "faulty-paxos":
		want = "decided"
		if property == want {
			if setting == "" {
				setting = "2,3,1"
			}
			v, err := ParseInts(setting, 3, "proposers,acceptors,learners")
			if err != nil {
				return nil, err
			}
			cfg := paxos.Config{Proposers: v[0], Acceptors: v[1], Learners: v[2], Faulty: protocol == "faulty-paxos"}
			if single {
				cfg.Model = paxos.ModelSingle
			}
			prop = paxos.Decides(cfg)
		}
	case "multicast":
		want = "delivered"
		if property == want {
			if setting == "" {
				setting = "3,0,1,1"
			}
			v, err := ParseInts(setting, 4, "honest receivers,honest initiators,byzantine receivers,byzantine initiators")
			if err != nil {
				return nil, err
			}
			cfg := multicast.Config{HonestReceivers: v[0], HonestInitiators: v[1], ByzantineReceivers: v[2], ByzantineInitiators: v[3]}
			if single {
				cfg.Model = multicast.ModelSingle
			}
			prop = multicast.Delivers(cfg)
		}
	case "storage":
		want = "reads-complete"
		if property == want {
			if setting == "" {
				setting = "3,1"
			}
			v, err := ParseInts(setting, 2, "objects,readers")
			if err != nil {
				return nil, err
			}
			cfg := storage.Config{Objects: v[0], Readers: v[1]}
			if single {
				cfg.Model = storage.ModelSingle
			}
			prop = storage.ReadsComplete(cfg)
		}
	default:
		return nil, fmt.Errorf("unknown protocol %q (want paxos, faulty-paxos, multicast or storage)", protocol)
	}
	if prop == nil {
		return nil, fmt.Errorf("unknown property %q for protocol %s (want %q)", property, protocol, want)
	}
	prop.WeakFair = fair
	return prop, nil
}

// ParseSplit maps a CLI split name to a refinement strategy.
func ParseSplit(s string) (refine.Strategy, error) {
	switch s {
	case "", "none":
		return refine.None, nil
	case "reply":
		return refine.Reply, nil
	case "quorum":
		return refine.Quorum, nil
	case "combined":
		return refine.Combined, nil
	default:
		return 0, fmt.Errorf("unknown split %q (want none, reply, quorum or combined)", s)
	}
}
