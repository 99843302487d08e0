package main

// expected holds the answers of the default seed (42), by mapping and
// query: the row count and the order-insensitive row fingerprint. A
// warm-up answer on that seed that differs from these is a failure.
var expected = map[string]answer{
	"xorator/QS1": {27568, 0xa1e43dd13e80beeb},
	"xorator/QS2": {4922, 0xcc427fb90b1c9354},
	"xorator/QS3": {574, 0x34063d2a19c3e2aa},
	"xorator/QS4": {46, 0xa82bcbaaaed8b313},
	"xorator/QS5": {29, 0xa0479591edc51fe5},
	"xorator/QS6": {27568, 0xbd7f0cf7cb9d0087},
	"xorator/QG1": {2539, 0xf2a458408ca9323d},
	"xorator/QG2": {9023, 0x798be7fda78b0f1c},
	"xorator/QG3": {2708, 0x0369d4efb5a5a854},
	"xorator/QG4": {384, 0x63e09f14faf22970},
	"xorator/QG5": {1, 0x4568de18181cd5c1},
	"xorator/QG6": {5507, 0xc8162bbba2775f74},
	"hybrid/QS1":  {144442, 0xf7e1ea7054775c70},
	"hybrid/QS2":  {5360, 0x682599908d66bd75},
	"hybrid/QS3":  {579, 0xa7cda96fbe2850ce},
	"hybrid/QS4":  {46, 0xa82bcbaaaed8b313},
	"hybrid/QS5":  {44, 0x96aae3fcdb246c32},
	"hybrid/QS6":  {27568, 0xf66d7f80069789fe},
	"hybrid/QG1":  {13823, 0x1f297b7503c05eb0},
	"hybrid/QG2":  {79046, 0xdc814547778009dd},
	"hybrid/QG3":  {3236, 0xffeaa759e567e532},
	"hybrid/QG4":  {384, 0x63e09f14faf22970},
	"hybrid/QG5":  {1, 0x4568de18181cd5c1},
	"hybrid/QG6":  {4120, 0x84556c4ae501d67a},
}
