package tile

// The fixtures the external tests share with this package's own.
var CodecTile, RealShapedTile = codecTile, realShapedTile

// CheckJSONNumber holds the JSON number kernels to strconv on one value.
var CheckJSONNumber = checkNumber
