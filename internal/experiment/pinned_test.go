package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// pinnedDigests are SHA-256 digests of the JSON-marshalled Point that
// RunPoint returns at load 0.9, seed 1, 4000 slots (+800 warm-up), keyed
// "algorithm/traffic/N". Those up to N = 32 were recorded before the
// baselines' center stages moved onto queue.Bank (PR 12) and pin every
// simulated number of every registered architecture: a queueing-substrate
// refactor must leave them untouched, and an intended model change must
// update them in the same commit (the failure message prints the new value).
var pinnedDigests = map[string]string{
	"load-balanced/uniform/8":      "49d4644dc741d00ab25e22c405c2ec88d4da0f4f4dd9ade24c35ac3be9c01055",
	"load-balanced/diagonal/8":     "99528e6e50e6dd12373b2dac8da3871adaa1b7a8b7a05de42e0e80a1c34e9e7e",
	"ufs/uniform/8":                "a53c46b0b1d65a196f9e08c9f4e2165dce76ea3c35df33514c83edd963cfaa79",
	"ufs/diagonal/8":               "413a52d8f5b4bec844f79e99f02c337649a89465af5f691ce2ba4f718a0d36f1",
	"foff/uniform/8":               "67f5224ef758df2dd283144ddc7f5039e5e383b536dbec44e3a185b78de0442f",
	"foff/diagonal/8":              "57c851067ab43368e68b64a11570919f13e80980545243d289836f27017b7bc7",
	"pf/uniform/8":                 "f7dab69e49fd7ac0c88872f6e96be103eefb8280f313c53b845ec7ca7899389b",
	"pf/diagonal/8":                "10ec7c21cea3bc7057c7d5f62bd97e47069f1e0581bbe59a20fca22124de872a",
	"sprinklers/uniform/8":         "2e2cea02736f54997af804323d1a11fd237f6340848cea5043f7f29c59f11c87",
	"sprinklers/diagonal/8":        "57216267c364d0c3ab0aef766aadc07051f587f43c34cd55f92e005c6cf9aff4",
	"sprinklers-greedy/uniform/8":  "950e4b22423ef6392a4fbd90fc9d43ee56dee9680320bc91c2ba1a82e6036f54",
	"sprinklers-greedy/diagonal/8": "7768a6d7b9b3f4380b625e1f0a52771683eaa567a2fb87b72a662fd5b7cc0d0a",
	"tcp-hashing/uniform/8":        "8852fc5268dbebc6ce224caf49537f2907f77f1b928fea586423e70f56c96e40",
	"tcp-hashing/diagonal/8":       "d2a6b26445a05977e307567b6b9884936724f24ffec94a1d9c17fc1e1347cdda",
	"cms/uniform/8":                "b6adf92daf98026f667c8c4ebf9318231b57e3991cdd3afbdd1bbcd0142ad4a1",
	"cms/diagonal/8":               "9a044ef5a30bc0c861cefed394de5ae01cc9f2c6dc73c4ede6cd957877015d5d",
	"load-balanced/uniform/32":     "d045f559e2258761e99129d77436cf4e72a8d7e912f45ae4ded1d6d2a6975db0",
	"load-balanced/diagonal/32":    "6533ef02c3fe28ea0b1d117b04761216a8bc8057ffaf426d84fbe8f82994f5bd",
	"ufs/uniform/32":               "e2b275ed19b968b776c8b6c481dd4c7bd416d41549fc94440d8390a9986d9e38",
	"ufs/diagonal/32":              "432ddaf94982ff113998021b9303716908f11169e51ebfd488cac340fc4e3a75",
	"foff/uniform/32":              "21442523976fae1d134fab1aadd56dd51d8c5f07f0de80133801990a6fe8bb3c",
	"foff/diagonal/32":             "d1e02a2a18247c33036b847aeee90342c2476f0dfcff5cc6243fe82d0fad461d",
	"pf/uniform/32":                "4a672db706f142558e7a686f0f7e0ec0bf6bbde4d31770807313acc77bfc8ee1",
	"pf/diagonal/32":               "916d14b220b9e19d24460a0d9b80d4c1fd88a487925406cddf52552b20f6d75c",
	"sprinklers/uniform/32":        "53d883f412ea43fa64fe8013695235c9df107bdb148eccd3f3e4f211bc9d5b0a",
	"sprinklers/diagonal/32":       "8f3a8cdb31bb6f154eb614e6a18967f87c2e2e35ff37f631b2d490bb2e3d6bc5",
	// N = 70 and 130 (two and three bitmap words, neither a power of two)
	// were recorded before PR 13 replaced the FOFF, UFS and PF input-side
	// VOQ scans with occupancy bitmaps.
	"foff/uniform/70":   "89042bc39e5d94c8487cb30fa80f11012b7ef16685e80b1ab78c5098a5e37b18",
	"foff/diagonal/70":  "3f490133ed859fc68a2db3bb8bf29f3b0c55188f1dc302498a1678bd15dad627",
	"ufs/uniform/70":    "ad91c3863dd1b236f74c1b31f84c7baebed3c6ff76216c6bd988bf63eb008bfc",
	"ufs/diagonal/70":   "e28684a557aeeab803341aa43547b9f0717ad8903153bb129055166b9a6b4d86",
	"pf/uniform/70":     "98a1c6bba6e6b3673e42c4436b51f40475d7d60f42922b7c7afb7a4f4623de05",
	"pf/diagonal/70":    "d2bedf0a6512aa73c58bf24568c6716309d42795dd5710c89601aad80f697161",
	"foff/uniform/130":  "cd4fd3131eb4d4daee8f1d39b0ee208ac9f33345a65f203ce8bfeabad3d03808",
	"foff/diagonal/130": "2e8f9088c703ae1a0fa93edcdbf13211d9ec36911dc0f2d091411af9c5a15ee0",
	"ufs/uniform/130":   "447b30c990f8d05294f08783a092122a5d9954618edbcc7fb343d80020ad4536",
	"ufs/diagonal/130":  "ff67ffa0c453b6556302ed1157614e0943d77a9d34ed2420c6cd13d6a049ce0e",
	"pf/uniform/130":    "d5f9baedd284ca4b8fbdb4df27ae1e09b1bc34cefe2c7065b53395ca64de6487",
	"pf/diagonal/130":   "58cf64d525da2121d3d3d51fa7d40ef2d30bad2931e09885a80aec06f41d6bb7",
	// CMS at N = 70 and 130 was recorded before its per-port matcher moved
	// from an output scan plus a sort of the grants onto token bit sets.
	"cms/uniform/70":   "469caf834d73906f2805ebb251bc20a92c3968197a705abc590318f1a6c7b4e3",
	"cms/diagonal/70":  "1542bfcc73d94e03ab7eeb2e18da304d005289ba7a7e14373d3d962f03402e93",
	"cms/uniform/130":  "aa22224137031aafe584911158f93b01a7f69894691571ad6cbf396a0b9f2d75",
	"cms/diagonal/130": "87d3a27f2d78b9136e62d363984fce74cb9879421c5828d249553b0f5656dd26",
}

func TestPinnedPointDigests(t *testing.T) {
	type size struct {
		n    int
		algs []Algorithm
	}
	seen := 0
	multiWord := []Algorithm{FOFF, UFS, PF, CMS}
	for _, sz := range []size{{8, AllAlgorithms()}, {32, Fig6Algorithms}, {70, multiWord}, {130, multiWord}} {
		for _, alg := range sz.algs {
			for _, tr := range []TrafficKind{UniformTraffic, DiagonalTraffic} {
				key := fmt.Sprintf("%s/%s/%d", alg, tr, sz.n)
				p, err := RunPoint(alg, Config{N: sz.n, Traffic: tr, Slots: 4000, Seed: 1}, 0.9)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				raw, err := json.Marshal(p)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				sum := sha256.Sum256(raw)
				got := hex.EncodeToString(sum[:])
				want, ok := pinnedDigests[key]
				if !ok {
					t.Errorf("%q: %q, // not pinned", key, got)
					continue
				}
				seen++
				if got != want {
					t.Errorf("%s: simulated statistics changed: digest %s, pinned %s\npoint: %s", key, got, want, raw)
				}
			}
		}
	}
	if seen != len(pinnedDigests) {
		t.Errorf("%d pinned digests, %d checked: a pinned architecture is no longer registered", len(pinnedDigests), seen)
	}
}

// pinnedDynamicDigests pin the points TestPinnedPointDigests does not
// reach: bursty, windowed and scenario points, which run the event-driven
// arrival source and the windowed collector. Same settings (load 0.9,
// seed 1, 4000 slots); recorded before static and scenario points shared
// one RunPoint body and traffic.Dynamic sampled through Bernoulli/OnOff.
var pinnedDynamicDigests = map[string]string{
	"sprinklers/uniform/8/burst-8":                        "2d4f72a5a848eea702946cfad64ea16f3bc3c6a7034235447d752c9063da23e4",
	"load-balanced/uniform/8/windows-5":                   "1f2ca745cc7435247ff5596ad984e2d7b693e26212f330bbafdca4ba9c0b0430",
	"sprinklers/uniform/8/flashcrowd":                     "1b9096baba902c7198bd77a52458de9359ecd5bd3aefc6271c25b40882953b0d",
	"sprinklers-adaptive/diagonal/16/flashcrowd/burst-16": "9dc5da00bdf6a04754aecfa51c497f50122719fece259c919aad5847d82da557",
	"load-balanced/uniform/8/linkfail/burst-16":           "b9dd62f722e776ec96a59a32944222b71907ca4a8006ffd39d9e2c2092785794",
	"load-balanced/uniform/8/linkfail":                    "50b8dfc2590aaa0a077da8260ac13b36fb7f3b7330c935ec292179dfa0cf8200",
	"ufs/hotspot/8/ratedrift":                             "db51edcd151213648fa1eecbfaf524259770783b340e272ab0281cb20c5207e0",
	"cms/uniform/8/loadstep":                              "03ca99044c45054c4b708c79035c6efd587209c48bbeab68c932b0633ed96376",
	"foff/uniform/8/hotspotshift/burst-4":                 "246c81b645ab58e309b47d690dea6e1c5adcedaeb26f25d48348c766a856ff4f",
}

func TestPinnedDynamicPointDigests(t *testing.T) {
	adaptive := map[string]any{"adaptive": true, "adaptive-window": 512, "adaptive-hold": 1}
	points := []struct {
		key string
		alg Algorithm
		cfg Config
	}{
		{"sprinklers/uniform/8/burst-8", Sprinklers, Config{N: 8, Traffic: UniformTraffic, Burst: 8}},
		{"load-balanced/uniform/8/windows-5", LoadBalanced, Config{N: 8, Traffic: UniformTraffic, Windows: 5}},
		{"sprinklers/uniform/8/flashcrowd", Sprinklers, Config{N: 8, Traffic: UniformTraffic, Scenario: FlashCrowd}},
		{"sprinklers-adaptive/diagonal/16/flashcrowd/burst-16", Sprinklers,
			Config{N: 16, Traffic: DiagonalTraffic, Scenario: FlashCrowd, Burst: 16, AlgOptions: adaptive}},
		{"load-balanced/uniform/8/linkfail/burst-16", LoadBalanced, Config{N: 8, Traffic: UniformTraffic, Scenario: LinkFail, Burst: 16}},
		{"load-balanced/uniform/8/linkfail", LoadBalanced, Config{N: 8, Traffic: UniformTraffic, Scenario: LinkFail}},
		{"ufs/hotspot/8/ratedrift", UFS, Config{N: 8, Traffic: HotspotTraffic, Scenario: RateDrift}},
		{"cms/uniform/8/loadstep", CMS, Config{N: 8, Traffic: UniformTraffic, Scenario: LoadStep}},
		{"foff/uniform/8/hotspotshift/burst-4", FOFF, Config{N: 8, Traffic: UniformTraffic, Scenario: HotspotShift, Burst: 4}},
	}
	for _, pt := range points {
		cfg := pt.cfg
		cfg.Slots, cfg.Seed = 4000, 1
		p, err := RunPoint(pt.alg, cfg, 0.9)
		if err != nil {
			t.Fatalf("%s: %v", pt.key, err)
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("%s: %v", pt.key, err)
		}
		sum := sha256.Sum256(raw)
		got := hex.EncodeToString(sum[:])
		want, ok := pinnedDynamicDigests[pt.key]
		if !ok {
			t.Errorf("%q: %q, // not pinned", pt.key, got)
			continue
		}
		if got != want {
			t.Errorf("%s: simulated statistics changed: digest %s, pinned %s\npoint: %s", pt.key, got, want, raw)
		}
	}
	if len(points) != len(pinnedDynamicDigests) {
		t.Errorf("%d pinned digests, %d points", len(pinnedDynamicDigests), len(points))
	}
}
