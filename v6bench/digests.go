package main

// recorded holds the SHA-256 of every final CSV per pack, at the
// pack's own seed and the workload's overrides. daemon-live and
// sharded-baseline run the same world, so they share one table: that
// equality is the sharded-vs-daemon oracle at the recorded seed. A run
// prints its own digests in its record line; regenerate this table from
// those after a change that is meant to alter campaign output.
var recorded = map[string]map[string]string{
	"baseline-2011": {
		"main/dns.csv":      "c67d043797b29382b1f96d7da297724d13d7dec302dd6c3972599b2ca977ad58",
		"main/paths.csv":    "df64ca9f3009c989f1e5d8b4b5c436023b8bc657741fe4fa738936aca3e11e6c",
		"main/samples.csv":  "f8b065f95addf34ee219786d2c1abe61833905ad77f1def80ec1d938a26d7cfa",
		"main/sites.csv":    "3e22378cd620ce8fba70770599ef82c9bc002c6ef60b67e60ce81da240669e1f",
		"v6day/dns.csv":     "f1ab4c3bfb775c7225cea6f913a3d6570242e352309894f241564c63611eace5",
		"v6day/paths.csv":   "f5604fb0088632834807574552547320d70224d379665853c302bf621eb551de",
		"v6day/samples.csv": "58fb95e54133af02be1e9e982b6df2591beb8d9278c95df3bf4e1b173b677a43",
		"v6day/sites.csv":   "e4aaff6df684786d5aa5b26c81c4b47e215ac894d80e3d2664c922e2b62a38c9",
	},
	"paper-scale-mini": {
		"main/dns.csv":      "a57389c2d82afe9e884b5c11734fc607a4c2d2eb753a5ca26ba64c5d328b23f6",
		"main/paths.csv":    "ea22f62f287a3bdfe57b42726b8336ab42b960f869a7db24f6c472a7f2e262c6",
		"main/samples.csv":  "0779342535d4cc749003c0d1e2ee9d6ce1fb40cbde0258a73b38a0290380b76f",
		"main/sites.csv":    "3387cab51317c1c3bc45f7b1a37b3d2c185f055b57d237b1232ef7e56de16816",
		"v6day/dns.csv":     "d7580eb384f367ab755d49cbdca23b30fa33833afdad4789602d9d9d7ba287a1",
		"v6day/paths.csv":   "338e73a1c563c3a4f31a976099faa3a8041beb043788fcf7ccd0214f9ad15c1d",
		"v6day/samples.csv": "3c27050276bf8d813d9af035181e7166dfdc7969372a86c5c52ece1d6f88f225",
		"v6day/sites.csv":   "fa513f8b1ef85d08e1026edbd6fcd8a24e60c7cf977c8373b34ee6a73a1d5454",
	},
	"world-ipv6-day": {
		"main/dns.csv":      "5bb4c1d3264f27fb8e0714f98e5655c439229ad504746de375f985e68f1224f9",
		"main/paths.csv":    "97561502b56a997fee2dca4fc7e66a6318f1f89484368fcbc42617ec03c1cc94",
		"main/samples.csv":  "5788b2e369cd539c6636adb90378fac550daeaf2af4bbbf2b9ac6f75643752b7",
		"main/sites.csv":    "46b61e9d88206f14af1f04ff8137ee81c42515fff94e302e8abcdc3ba787d795",
		"v6day/dns.csv":     "f8394f3ea6a29a0cd025740b534f089cb4f53aa74ca1a240469f0edf5c20ca4b",
		"v6day/paths.csv":   "03341cd72d4ef968aef20ce8528b4534f14809cefff47ccdfddbc4cfefb17599",
		"v6day/samples.csv": "9c3600de15d9461e0d351cd92683cae7ca93333788314e7aa1eb5c4b54cc0a16",
		"v6day/sites.csv":   "da499a9247af036804f23252f3300b950b4ccd5ff51c592998a726ffd4c12a56",
	},
}

// recordedDigests returns the digests a run must reproduce, if any
// were recorded for its pack: only runs at the pack's own seed and
// full scale have them.
func (b *bench) recordedDigests() (map[string]string, bool) {
	if b.opt.tiny || b.seed != b.packSeed {
		return nil, false
	}
	want, ok := recorded[b.w.pack]
	return want, ok
}
