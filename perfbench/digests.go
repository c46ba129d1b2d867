package main

// pinnedDigests are SHA-256 digests of the CLIs' outputs at the default
// seed, keyed by size and output. Each repeated byte for byte across runs
// when pinned; a mismatch counts as a failed operation.
//
//   - zmapscan.stdout: zmapscan's standard output with its wall-time field
//     masked as "in - (wall)"
//   - surveyor.dataset: the tosv dataset file
//   - analyze.report: analyze's standard output
//   - advisord.snapshot: the body of advisord's GET /snapshot
func pinnedDigests() map[string]string {
	return map[string]string{
		"full/zmapscan.stdout":   "41afcb3f216a72c4bbf44fbf98dbdab3b290d14c1f4c19637c7e76130a6be6b4",
		"full/surveyor.dataset":  "6ef4a36c4ddf2de1499253438d7fab700d73a4376c2a8ecfc182afd0ac0ff9ca",
		"full/analyze.report":    "740b7c32bf39bf7205ab0fc52bc24163f1118ce90d61440e005c5afd1fa23e36",
		"full/advisord.snapshot": "20374364ce53791bb497d14018b676f5810241a185a1e74bdb70784564cf8eb2",
		"toy/zmapscan.stdout":    "465c0100836811c6e7e87d53f4f52317240a8abfff03b37079c30c5d71b71b71",
		"toy/surveyor.dataset":   "498e7dfc9c78fa817c9ba2e6162fa85ed34f2c80effad678d33c415f10b27bbc",
		"toy/analyze.report":     "eb9796cdf90e7eaa8ed234d59559bb9e13aeadf2bb14f7d74e1954a14cfb4329",
		"toy/advisord.snapshot":  "a7defd13d0e65cbc39fcec2b90575802e38ad6d902131de496457d061d82ad0d",
	}
}
