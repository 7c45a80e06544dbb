package main

import (
	"fmt"

	"github.com/uav-coverage/uavnet/testonlyfix/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(lib.UsedByApp(), s.Area(), lib.Color(3), lib.UsedConst)
}
