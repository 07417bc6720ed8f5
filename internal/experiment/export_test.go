package experiment

// Registered workload and scenario names the tests select by constant.
const (
	HotspotTraffic     TrafficKind = "hotspot"
	ZipfTraffic        TrafficKind = "zipf"
	PermutationTraffic TrafficKind = "permutation"

	RateDrift    ScenarioKind = "ratedrift"
	HotspotShift ScenarioKind = "hotspotshift"
	LinkFail     ScenarioKind = "linkfail"
	LoadStep     ScenarioKind = "loadstep"
)
